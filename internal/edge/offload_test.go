package edge

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// stateCell is one way a session's second offload can travel: the request
// whole or as a delta against the state its first offload left, the result
// home as a delta (a client.Offloader, which patches the snapshot it sent)
// or as the full result snapshot (a raw session holding only bytes, on
// Conn.OffloadSnapshot; its delta request is framed by hand against the
// full result the raw API returned and stored).
type stateCell struct{ deltaRequest, fullReply bool }

// keepsState reports whether the server holds a cell's post-execution
// state: not for a default Offloader, which builds on nothing.
func (c stateCell) keepsState() bool { return c.deltaRequest || c.fullReply }

// stateSession drives one app through one cell.
type stateSession struct {
	app *webapp.App
	// off is nil for a raw session, which keeps its own sync point.
	off     *client.Offloader
	srv     *Server
	conn    *client.Conn
	base    *snapshot.Snapshot
	baseKey string
}

// click loads the image for seed and offloads the click; asDelta ships a raw
// session's request as a delta (an Offloader decides that by itself).
func (s *stateSession) click(seed uint64, asDelta bool) error {
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
	var result *snapshot.Snapshot
	if !asDelta {
		request, err := snap.Encode()
		if err != nil {
			return err
		}
		body, _, err := s.conn.OffloadSnapshot(s.app.ID(), request, false)
		if err != nil {
			return err
		}
		if result, err = snapshot.Decode(body); err != nil {
			return err
		}
		s.baseKey = snapshot.HashEncoded(body)
	} else {
		delta, err := snapshot.Diff(s.base, snap, s.baseKey)
		if err != nil {
			return err
		}
		wire, err := delta.Encode()
		if err != nil {
			return err
		}
		req, err := protocol.Encode(protocol.MsgSnapshotDelta,
			protocol.SnapshotHeader{AppID: s.app.ID(), BodyCRC: protocol.BodyChecksum(wire)}, wire)
		if err != nil {
			return err
		}
		resp, err := s.srv.handleOffload(req, 0)
		if err != nil {
			return err
		}
		resultDelta, err := snapshot.DecodeDelta(resp.Body)
		if err != nil {
			return err
		}
		sent, err := snap.Hash()
		if err != nil {
			return err
		}
		if result, err = resultDelta.Apply(snap, sent); err != nil {
			return err
		}
	}
	s.base = result
	return result.ApplyTo(s.app, snapshot.RestoreOptions{})
}

// TestFullAndDeltaReachSameState: the handler treats a delta as a full
// snapshot with one extra step at the front edge, and the reply's form is
// framing, so the same pre-execution state must end in the same app state at
// the client — and, wherever the server keeps state, the same stored state
// under the same content key — in all four cells of {full, delta request} ×
// {delta reply, full reply}, executed alone (MaxBatch 1) or coalesced with
// its neighbours (MaxBatch 4). The one cell that keeps nothing, a default
// Offloader, must leave the store holding the model alone.
func TestFullAndDeltaReachSameState(t *testing.T) {
	apps := []string{"same-a", "same-b", "same-c"}
	cells := []stateCell{{false, false}, {true, false}, {false, true}, {true, true}}
	for _, maxBatch := range []int{1, 4} {
		t.Run(fmt.Sprintf("MaxBatch%d", maxBatch), func(t *testing.T) {
			// finals[cell][appID] hashes the client app's final state;
			// keys[cell][appID] is the content key of the state the second
			// offload left at that cell's own server.
			finals := map[stateCell]map[string]string{}
			keys := map[stateCell]map[string]string{}
			for _, cell := range cells {
				srv, addr := startServer(t, Config{
					Installed: true, Workers: 1, MaxBatch: maxBatch, BatchWindow: 100 * time.Millisecond,
				})
				model := tinyModel(t, "tiny")
				sessions := make([]*stateSession, len(apps))
				for i, id := range apps {
					app, err := mlapp.NewFullApp(id, "tiny", model, tinyLabels)
					if err != nil {
						t.Fatal(err)
					}
					sess := &stateSession{app: app, srv: srv, conn: dial(t, addr)}
					if cell.fullReply {
						if err := sess.conn.PreSendModel(id, "tiny", model, false); err != nil {
							t.Fatal(err)
						}
					} else {
						sess.off, err = client.NewOffloader(app, sess.conn, client.Options{
							OffloadEventTypes: []string{mlapp.EventClick},
							Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
							EnableDelta:       cell.deltaRequest,
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
				modelAlone := srv.Metrics().StoreBytes
				// First offload: always whole; it leaves the base where one
				// is kept.
				for i, sess := range sessions {
					if err := sess.click(uint64(10+i), false); err != nil {
						t.Fatal(err)
					}
				}
				// Second offload, all sessions at once so MaxBatch 4 has
				// something to coalesce.
				var wg sync.WaitGroup
				for i, sess := range sessions {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := sess.click(uint64(20+i), cell.deltaRequest); err != nil {
							t.Errorf("%+v %s: %v", cell, sess.app.ID(), err)
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				finals[cell], keys[cell] = map[string]string{}, map[string]string{}
				for i, id := range apps {
					if off := sessions[i].off; off != nil {
						if got := off.Stats().DeltaOffloads; (got == 1) != cell.deltaRequest {
							t.Fatalf("%+v %s: DeltaOffloads = %d", cell, id, got)
						}
					}
					final, err := snapshot.Capture(sessions[i].app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
					if err != nil {
						t.Fatal(err)
					}
					if finals[cell][id], err = final.Hash(); err != nil {
						t.Fatal(err)
					}
					key, _, ok := storedState(srv, id)
					if ok != cell.keepsState() {
						t.Fatalf("%+v %s: synced state kept = %v", cell, id, ok)
					}
					keys[cell][id] = key
				}
				m := srv.Metrics()
				if !cell.keepsState() && m.StoreBytes != modelAlone {
					t.Errorf("%+v: store holds %d B, the model alone is %d B", cell, m.StoreBytes, modelAlone)
				}
				if st := srv.SchedStats(); maxBatch > 1 && st.BatchedTasks < 2 {
					t.Errorf("%+v: batched tasks = %d, the coalesced path was not exercised", cell, st.BatchedTasks)
				}
				wantDeltas, wantFull := int64(0), int64(2*len(apps))
				if cell.deltaRequest {
					wantDeltas, wantFull = int64(len(apps)), int64(len(apps))
				}
				if m.DeltasExecuted != wantDeltas || m.SnapshotsExecuted != wantFull {
					t.Errorf("%+v: metrics %+v, want %d delta and %d full requests executed", cell, m, wantDeltas, wantFull)
				}
			}
			for _, id := range apps {
				want := finals[cells[0]][id]
				for _, cell := range cells {
					if got := finals[cell][id]; got != want {
						t.Errorf("%s: final app state %s in cell %+v, %s in cell %+v", id, got, cell, want, cells[0])
					}
					// A kept state is the app's state: one content key.
					if got := keys[cell][id]; cell.keepsState() && got != want {
						t.Errorf("%s: cell %+v stored state %s, the app ended in %s", id, cell, got, want)
					}
				}
			}
		})
	}
}

// TestFailedBatchReexecutesEveryMemberSolo: when the batched handler fails,
// nothing it touched may be published; every member is re-executed through
// the same routine as a batch of one, so the healthy members succeed and
// the broken one gets its own error, not the batch's.
func TestFailedBatchReexecutesEveryMemberSolo(t *testing.T) {
	var soloRuns, batchRuns atomic.Int64
	reg := webapp.NewRegistry("half-batchable")
	reg.MustRegister("work", func(app *webapp.App, _ webapp.Event) error {
		soloRuns.Add(1)
		if bad, _ := app.Global("bad"); bad == true {
			return fmt.Errorf("member %s is broken", app.ID())
		}
		return app.SetGlobal("done", app.ID())
	})
	reg.MustRegisterBatch("work", func(apps []*webapp.App, _ []webapp.Event) error {
		batchRuns.Add(1)
		// Half-finished damage the re-execution must not inherit.
		for _, app := range apps {
			if err := app.SetGlobal("done", "by the failed batch"); err != nil {
				return err
			}
		}
		return errors.New("batched kernel unavailable")
	})
	cat := webapp.NewCatalog()
	if err := cat.Add(reg); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		Installed: true, Catalog: cat,
		Workers: 1, MaxBatch: 4, BatchWindow: 300 * time.Millisecond,
	})

	ids := []string{"member-a", "member-b", "member-c"}
	results := make([]*snapshot.Snapshot, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		conn := dial(t, addr)
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			errs[i] = func() error {
				app, err := webapp.NewApp(id, reg)
				if err != nil {
					return err
				}
				if err := app.AddEventListener("b", "go", "work"); err != nil {
					return err
				}
				if err := app.SetGlobal("bad", id == "member-b"); err != nil {
					return err
				}
				snap, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &webapp.Event{Target: "b", Type: "go"}})
				if err != nil {
					return err
				}
				request, err := snap.Encode()
				if err != nil {
					return err
				}
				body, _, err := conn.OffloadSnapshot(id, request, false)
				if err != nil {
					return err
				}
				results[i], err = snapshot.Decode(body)
				return err
			}()
		}(i, id)
	}
	wg.Wait()

	if batchRuns.Load() == 0 {
		t.Fatal("the sessions were never coalesced: batched handler not exercised")
	}
	// Every member the failed batch held ran solo exactly once.
	if got := soloRuns.Load(); got != int64(len(ids)) {
		t.Errorf("solo handler runs = %d, want %d", got, len(ids))
	}
	for i, id := range ids {
		if id == "member-b" {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "member member-b is broken") {
				t.Errorf("%s: err = %v, want its own failure", id, errs[i])
			}
			if _, _, ok := storedState(srv, id); ok {
				t.Errorf("%s: a failed member left synced state", id)
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("%s: %v (a healthy member must not inherit the batch's failure)", id, errs[i])
			continue
		}
		if got := results[i].Globals["done"]; got != id {
			t.Errorf("%s: done = %v, want its own solo result", id, got)
		}
	}
}
