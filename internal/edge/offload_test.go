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
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// TestFullAndDeltaReachSameState: the handler treats a delta as a full
// snapshot with two extra steps at the edges, so the same pre-execution
// state must leave the same post-execution state at the server — same
// content hash — whether it arrived whole or as a delta, executed alone
// (MaxBatch 1) or coalesced with its neighbours (MaxBatch 4).
func TestFullAndDeltaReachSameState(t *testing.T) {
	apps := []string{"same-a", "same-b", "same-c"}
	for _, maxBatch := range []int{1, 4} {
		t.Run(fmt.Sprintf("MaxBatch%d", maxBatch), func(t *testing.T) {
			// states[shipping][appID] is the content key of the state the
			// second offload left at that shipping form's own server.
			states := map[bool]map[string]string{}
			for _, delta := range []bool{false, true} {
				srv, addr := startServer(t, Config{
					Installed: true, Workers: 1, MaxBatch: maxBatch, BatchWindow: 100 * time.Millisecond,
				})
				model := tinyModel(t, "tiny")
				offs := make([]*client.Offloader, len(apps))
				sessions := make([]*webapp.App, len(apps))
				for i, id := range apps {
					app, err := mlapp.NewFullApp(id, "tiny", model, tinyLabels)
					if err != nil {
						t.Fatal(err)
					}
					off, err := client.NewOffloader(app, dial(t, addr), client.Options{
						OffloadEventTypes: []string{mlapp.EventClick},
						Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
						EnableDelta:       delta,
					})
					if err != nil {
						t.Fatal(err)
					}
					off.StartPreSend()
					if err := off.WaitForAcks(); err != nil {
						t.Fatal(err)
					}
					// First offload: always whole; it leaves the base.
					runInference(t, off, app, mlapp.SyntheticImage(3*16*16, uint64(10+i)))
					offs[i], sessions[i] = off, app
				}
				// Second offload, all sessions at once so MaxBatch 4 has
				// something to coalesce.
				var wg sync.WaitGroup
				for i := range apps {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						app := sessions[i]
						if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, uint64(20+i))); err != nil {
							t.Error(err)
							return
						}
						app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
						if _, err := offs[i].Run(10); err != nil {
							t.Error(err)
						}
					}(i)
				}
				wg.Wait()
				states[delta] = map[string]string{}
				for i, id := range apps {
					if got := offs[i].Stats().DeltaOffloads; (got == 1) != delta {
						t.Fatalf("%s: DeltaOffloads = %d with delta=%v", id, got, delta)
					}
					key, _, ok := storedState(srv, id)
					if !ok {
						t.Fatalf("%s: no synced state (delta=%v)", id, delta)
					}
					states[delta][id] = key
				}
				if st := srv.SchedStats(); maxBatch > 1 && st.BatchedTasks < 2 {
					t.Errorf("delta=%v: batched tasks = %d, the coalesced path was not exercised", delta, st.BatchedTasks)
				}
				if m := srv.Metrics(); delta != (m.DeltasExecuted == int64(len(apps))) {
					t.Errorf("delta=%v: metrics %+v", delta, m)
				}
			}
			for _, id := range apps {
				if states[false][id] != states[true][id] {
					t.Errorf("%s: post-execution state %s as a full snapshot, %s as a delta",
						id, states[false][id], states[true][id])
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
