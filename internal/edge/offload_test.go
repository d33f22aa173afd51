package edge

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// replySession drives one app's offloads with the result coming home in one
// of the two reply forms: as a delta (a client.Offloader, which patches the
// snapshot it sent) or as the full result snapshot (a raw session holding
// only bytes, on Conn.OffloadSnapshot).
type replySession struct {
	app *webapp.App
	// off is nil for a raw session.
	off  *client.Offloader
	conn *client.Conn
}

// click loads the image for seed and offloads the click.
func (s *replySession) click(seed uint64) error {
	if err := mlapp.LoadImage(s.app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
		return err
	}
	ev := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}
	if s.off != nil {
		s.app.DispatchEvent(ev)
		_, err := s.off.Run(10)
		return err
	}
	snap, err := snapshot.Capture(s.app, snapshot.Options{DefaultModelPolicy: snapshot.ModelSpecOnly, PendingEvent: &ev})
	if err != nil {
		return err
	}
	request, err := snap.Encode()
	if err != nil {
		return err
	}
	body, _, err := s.conn.OffloadSnapshot(s.app.ID(), request, false)
	if err != nil {
		return err
	}
	result, err := snapshot.Decode(body)
	if err != nil {
		return err
	}
	return result.ApplyTo(s.app, snapshot.RestoreOptions{})
}

// TestFullAndDeltaReachSameState: the reply's form is framing, so the same
// pre-execution state must end in the same app state at the client whether
// the result came home as a delta or whole, each session run alone or
// queued behind its neighbours at the one worker.
func TestFullAndDeltaReachSameState(t *testing.T) {
	apps := []string{"same-a", "same-b", "same-c"}
	// finals[fullReply][appID] is the client app's final state, encoded
	// without models.
	finals := map[bool]map[string][]byte{}
	for _, fullReply := range []bool{false, true} {
		srv, addr := startServer(t, Config{Installed: true, Workers: 1})
		model := tinyModel(t, "tiny")
		sessions := make([]*replySession, len(apps))
		for i, id := range apps {
			app, err := mlapp.NewFullApp(id, "tiny", model, tinyLabels)
			if err != nil {
				t.Fatal(err)
			}
			sess := &replySession{app: app, conn: dial(t, addr)}
			if fullReply {
				if _, err := sess.conn.PreSendModel(id, "tiny", model, ""); err != nil {
					t.Fatal(err)
				}
			} else {
				sess.off, err = client.NewOffloader(app, sess.conn, client.Options{
					OffloadEventTypes: []string{mlapp.EventClick},
				})
				if err != nil {
					t.Fatal(err)
				}
				sess.off.StartPreSend()
				if err := sess.off.WaitForAcks(); err != nil {
					t.Fatal(err)
				}
			}
			sessions[i] = sess
		}
		for i, sess := range sessions {
			if err := sess.click(uint64(10 + i)); err != nil {
				t.Fatal(err)
			}
		}
		// Second offload, all sessions at once, so they queue at the worker.
		var wg sync.WaitGroup
		for i, sess := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sess.click(uint64(20 + i)); err != nil {
					t.Errorf("fullReply=%v %s: %v", fullReply, sess.app.ID(), err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		finals[fullReply] = map[string][]byte{}
		for i, id := range apps {
			final, err := snapshot.Capture(sessions[i].app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
			if err != nil {
				t.Fatal(err)
			}
			final.Models = nil
			if finals[fullReply][id], err = final.Encode(); err != nil {
				t.Fatal(err)
			}
		}
		if m := srv.Metrics(); m.SnapshotsExecuted != int64(2*len(apps)) {
			t.Errorf("fullReply=%v: %d snapshots executed, want %d", fullReply, m.SnapshotsExecuted, 2*len(apps))
		}
	}
	for _, id := range apps {
		if delta, full := finals[false][id], finals[true][id]; !bytes.Equal(delta, full) {
			t.Errorf("%s: final app state after delta replies (%d B) differs from the one after full replies (%d B)", id, len(delta), len(full))
		}
	}
}

// TestStoreHoldsModelsOnly: whatever mix of sessions a server has served —
// full, partial, int8, two streams of one multiplexed connection, the raw
// full-reply API — standalone or fleet-joined, its store holds the pre-sent
// models and nothing else: the byte charge is the models' bytes, the entries
// are the distinct models, and the keys it would advertise are their
// fingerprints.
func TestStoreHoldsModelsOnly(t *testing.T) {
	const offloads = 5
	model := tinyModel(t, "tiny")
	// offloader builds an Offloader session of the given kind on conn and
	// returns its click driver and the model it pre-sent.
	offloader := func(t *testing.T, conn *client.Conn, appID, kind string) (func(uint64) error, *nn.Network) {
		opts := client.Options{
			OffloadEventTypes: []string{mlapp.EventClick},
		}
		var (
			app *webapp.App
			err error
		)
		sent := model
		if kind == "partial" {
			if app, err = mlapp.NewPartialApp(appID, "tiny", model, 2, tinyLabels); err != nil {
				t.Fatal(err)
			}
			rear, ok := app.Model("tiny" + mlapp.RearSuffix)
			if !ok {
				t.Fatal("rear model missing")
			}
			sent = rear
			opts.OffloadEventTypes = []string{mlapp.EventFrontComplete}
			opts.ExcludeModels = []string{"tiny" + mlapp.FrontSuffix}
		} else if app, err = mlapp.NewFullApp(appID, "tiny", model, tinyLabels); err != nil {
			t.Fatal(err)
		}
		if kind == "int8" {
			if err := mlapp.SetQuality(app, nn.PrecInt8); err != nil {
				t.Fatal(err)
			}
		}
		off, err := client.NewOffloader(app, conn, opts)
		if err != nil {
			t.Fatal(err)
		}
		off.StartPreSend()
		if err := off.WaitForAcks(); err != nil {
			t.Fatal(err)
		}
		sess := &replySession{app: app, off: off, conn: conn}
		return func(seed uint64) error {
			if err := sess.click(seed); err != nil {
				return err
			}
			if st := off.Stats(); st.LocalFallbacks != 0 {
				return fmt.Errorf("%s ran locally: %+v", appID, st)
			}
			return nil
		}, sent
	}
	for _, kind := range []string{"full", "partial", "int8", "mux2", "raw"} {
		for _, fleet := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fleet=%v", kind, fleet), func(t *testing.T) {
				cfg := Config{Installed: true, Workers: 2}
				if fleet {
					cfg.AdvertiseAddr = "self:0"
				}
				srv, addr := startServer(t, cfg)
				conn := dial(t, addr)
				var clicks []func(uint64) error
				var sent []*nn.Network
				switch kind {
				case "mux2":
					for _, id := range []string{"store-mux-a", "store-mux-b"} {
						click, net := offloader(t, conn, id, "full")
						clicks, sent = append(clicks, click), append(sent, net)
					}
				case "raw":
					const id = "store-raw"
					if _, err := conn.PreSendModel(id, "tiny", model, ""); err != nil {
						t.Fatal(err)
					}
					app, err := mlapp.NewFullApp(id, "tiny", model, tinyLabels)
					if err != nil {
						t.Fatal(err)
					}
					clicks, sent = append(clicks, (&replySession{app: app, conn: conn}).click), append(sent, model)
				default:
					click, net := offloader(t, conn, "store-"+kind, kind)
					clicks, sent = append(clicks, click), append(sent, net)
				}
				// The streams of one connection run side by side.
				var wg sync.WaitGroup
				for i, click := range clicks {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := 0; n < offloads; n++ {
							if err := click(uint64(100*i + n + 1)); err != nil {
								t.Errorf("session %d offload %d: %v", i, n+1, err)
								return
							}
						}
					}()
				}
				wg.Wait()

				models := map[string]int64{}
				for _, net := range sent {
					models[nn.Fingerprint(net)] = net.ResidentBytes() // weights + packed conv panels
				}
				var wantBytes int64
				for _, b := range models {
					wantBytes += b
				}
				m := srv.Metrics()
				if want := int64(offloads * len(clicks)); m.SnapshotsExecuted != want || m.Errors != 0 {
					t.Fatalf("metrics %+v, want %d snapshots executed and no errors", m, want)
				}
				if m.StoreBytes != wantBytes {
					t.Errorf("store holds %d B, the pre-sent models' weights and packed panels are %d B", m.StoreBytes, wantBytes)
				}
				if got := srv.store.Entries(); got != len(models) {
					t.Errorf("store has %d entries for %d distinct model(s)", got, len(models))
				}
				keys := srv.store.KeysMRU()
				for _, key := range keys {
					if _, ok := models[key]; !ok {
						t.Errorf("store key %s is no pre-sent model's fingerprint", key)
					}
				}
				if advertised := srv.BlobKeys(); fleet && !slices.Equal(advertised, keys) {
					t.Errorf("heartbeat advertises %v, store holds %v", advertised, keys)
				}
			})
		}
	}
}
