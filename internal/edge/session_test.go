package edge

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"websnap/internal/mlapp"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
)

// testSnap captures one synced-state snapshot (as the server does: no
// models) with a distinct image, so different seeds hash to different
// content keys, and returns it with its encoding.
func testSnap(t *testing.T, model *nn.Network, seed uint64) (*snapshot.Snapshot, []byte) {
	t.Helper()
	app, err := mlapp.NewFullApp("snap-src", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return snap, data
}

// TestSessionStoreCompaction pins delta-chain compaction: each app holds
// exactly one synced state, and storing the next state in the chain
// releases the superseded base.
func TestSessionStoreCompaction(t *testing.T) {
	model := tinyModel(t, "tiny")
	s := newSessionStore(0)
	snapA, dataA := testSnap(t, model, 1)
	snapB, dataB := testSnap(t, model, 2)
	sizeA, sizeB := int64(len(dataA)), int64(len(dataB))

	keyA := s.PutState("app", snapA, dataA)
	if want, err := snapA.Hash(); err != nil || keyA != want {
		t.Fatalf("state key %s is not the snapshot's hash %s (err %v)", keyA, want, err)
	}
	if s.Entries() != 1 || s.Bytes() != sizeA {
		t.Fatalf("after first state: entries=%d bytes=%d", s.Entries(), s.Bytes())
	}
	keyB := s.PutState("app", snapB, dataB)
	if keyA == keyB {
		t.Fatal("distinct snapshots hashed to one key; test is vacuous")
	}
	if s.Entries() != 1 || s.Bytes() != sizeB {
		t.Fatalf("superseded base not compacted: entries=%d bytes=%d (want 1, %d)",
			s.Entries(), s.Bytes(), sizeB)
	}
	if got := s.Compactions(); got != 1 {
		t.Fatalf("Compactions = %d, want 1", got)
	}
	if got, key, ok := s.GetState("app"); !ok || got != snapB || key != keyB {
		t.Fatal("GetState does not return the latest state under its content key")
	}
	// Re-storing the identical state is a touch, not a compaction.
	s.PutState("app", snapB, dataB)
	if got := s.Compactions(); got != 1 {
		t.Fatalf("idempotent PutState counted as compaction: %d", got)
	}
}

// TestSessionStoreSharedContent pins content addressing: byte-identical
// payloads referenced by many sessions occupy one entry, and releasing one
// reference keeps the entry alive for the others.
func TestSessionStoreSharedContent(t *testing.T) {
	model := tinyModel(t, "tiny")
	other := tinyModel(t, "other")
	s := newSessionStore(0)
	s.Put("app-1", "tiny", model)
	s.Put("app-2", "tiny", model)
	if s.Entries() != 1 {
		t.Fatalf("identical model for two apps stored %d times", s.Entries())
	}
	if s.Bytes() != model.ModelBytes() {
		t.Fatalf("Bytes = %d, want one copy (%d)", s.Bytes(), model.ModelBytes())
	}
	// app-1 replaces its model; app-2's reference keeps the entry alive.
	s.Put("app-1", "tiny", other)
	if _, ok := s.Get("app-2", "tiny"); !ok {
		t.Fatal("shared entry released while still referenced")
	}
	if s.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries())
	}
	// app-2 replaces too: the original entry's last reference goes.
	s.Put("app-2", "tiny", other)
	if s.Entries() != 1 {
		t.Fatalf("unreferenced entry retained: entries = %d", s.Entries())
	}
}

// TestSessionStoreLRUEvictionUnderLoad pins the byte bound: pushing many
// states through a small store never exceeds the cap, evicts in LRU order
// where a read counts as use, reports the evictions, and lists the
// survivors most recently used first.
func TestSessionStoreLRUEvictionUnderLoad(t *testing.T) {
	model := tinyModel(t, "tiny")
	_, data := testSnap(t, model, 1)
	size := int64(len(data))
	cap := 3*size + size/2 // room for three states, not four
	s := newSessionStore(cap)
	held := func(key string) bool {
		for _, k := range s.KeysMRU() {
			if k == key {
				return true
			}
		}
		return false
	}

	keys := make([]string, 0, 12)
	for i := uint64(1); i <= 12; i++ {
		snap, data := testSnap(t, model, i)
		key := s.PutState(fmt.Sprintf("app-%d", i), snap, data)
		keys = append(keys, key)
		if s.Bytes() > cap {
			t.Fatalf("after state %d: Bytes %d exceeds cap %d", i, s.Bytes(), cap)
		}
		// Every listed key is an entry and the newest leads the list.
		if mru := s.KeysMRU(); len(mru) != s.Entries() || mru[0] != key {
			t.Fatalf("after state %d: KeysMRU = %v, want %d keys led by %s", i, mru, s.Entries(), key)
		}
		if i == 3 {
			// Reading app-1's state makes it the hottest, so the fourth
			// store evicts app-2's, the least recently used.
			if _, _, ok := s.GetState("app-1"); !ok {
				t.Fatal("app-1 state missing before cap pressure")
			}
		}
		if i == 4 && (!held(keys[0]) || held(keys[1])) {
			t.Fatalf("first eviction took the wrong entry: app-1 held %v, app-2 held %v (KeysMRU %v)",
				held(keys[0]), held(keys[1]), s.KeysMRU())
		}
	}
	if got, want := s.Evictions(), int64(len(keys)-s.Entries()); got == 0 || got != want {
		t.Fatalf("Evictions = %d, want %d (12 states through a 3-state store)", got, want)
	}
	// An evicted state's app slot is gone with it.
	if _, _, ok := s.GetState("app-2"); ok {
		t.Fatal("LRU state survived cap pressure")
	}
	if _, _, ok := s.GetState("app-12"); !ok {
		t.Fatal("most recent state evicted")
	}
}

// TestSessionStoreKeepsOversizedEntry pins the rule that replaces a blob
// cache's refusal of oversized blobs: the entry just stored is never the
// eviction victim — its session needs it now — so one larger than the
// whole cap displaces everything else and leaves the store over budget
// until the next store.
func TestSessionStoreKeepsOversizedEntry(t *testing.T) {
	model := tinyModel(t, "tiny")
	snap, data := testSnap(t, model, 1)
	s := newSessionStore(int64(len(data)) + 1) // room for the state, not the model
	s.PutState("app", snap, data)
	if err := s.Put("app", "tiny", model); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("app", "tiny"); !ok {
		t.Fatal("the model just stored was evicted")
	}
	if _, _, ok := s.GetState("app"); ok || s.Entries() != 1 {
		t.Fatalf("oversized entry did not displace the resident state (entries %d)", s.Entries())
	}
	if s.Bytes() != model.ModelBytes() || s.Bytes() <= s.MaxBytes() {
		t.Fatalf("Bytes = %d with cap %d, want the model's %d over budget", s.Bytes(), s.MaxBytes(), model.ModelBytes())
	}
}

// TestSessionStoreEvictionCleansDisk pins that evicting a persisted model
// also removes its on-disk files — a disk-backed store's footprint is
// bounded too, and a restart cannot resurrect evicted entries.
func TestSessionStoreEvictionCleansDisk(t *testing.T) {
	dir := t.TempDir()
	a := tinyModel(t, "model-a")
	cap := a.ModelBytes() + a.ModelBytes()/2 // room for one model, not two
	s, err := newSessionStoreDir(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("app", "a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("app", "b", tinyModel(t, "model-b")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("app", "a"); ok {
		t.Fatal("model a survived cap pressure")
	}
	if _, err := os.Stat(filepath.Join(dir, escape("app"), escape("a")+specSuffix)); !os.IsNotExist(err) {
		t.Fatalf("evicted model's spec file still on disk (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, escape("app"), escape("a")+weightsSuffix)); !os.IsNotExist(err) {
		t.Fatalf("evicted model's weights file still on disk (err=%v)", err)
	}
	// A restarted store over the same directory sees only the survivor.
	restarted, err := newSessionStoreDir(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restarted.Get("app", "a"); ok {
		t.Fatal("evicted model resurrected by restart")
	}
	if _, ok := restarted.Get("app", "b"); !ok {
		t.Fatal("resident model lost across restart")
	}
}

// fakeLocator serves a fixed holder map.
type fakeLocator struct{ holders map[string][]string }

func (l fakeLocator) Locate(keys []string) (map[string][]string, error) {
	out := make(map[string][]string)
	for _, k := range keys {
		if h, ok := l.holders[k]; ok {
			out[k] = h
		}
	}
	return out, nil
}

// blobPeer runs a minimal fleet peer: it answers MsgBlobGet for the blobs
// it holds and a clean error frame otherwise (exactly like a real server
// that evicted the blob).
func blobPeer(t *testing.T, blobs map[string][]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				msg, err := protocol.Read(c)
				if err != nil {
					return
				}
				var hdr protocol.BlobGetHeader
				if err := protocol.DecodeHeader(msg, &hdr); err != nil {
					return
				}
				data, ok := blobs[hdr.Key]
				if !ok {
					resp, _ := protocol.Encode(protocol.MsgError,
						protocol.ErrorHeader{Message: fmt.Sprintf("blob %s not held here", hdr.Key)}, nil)
					protocol.Write(c, resp) //nolint:errcheck
					return
				}
				resp, _ := protocol.Encode(protocol.MsgBlobData, protocol.BlobDataHeader{
					Key: hdr.Key, BodyCRC: protocol.BodyChecksum(data),
				}, data)
				protocol.Write(c, resp) //nolint:errcheck
			}(c)
		}
	}()
	return ln.Addr().String()
}

// fleetServer runs a fleet-joined server whose locator names holders for
// key, in order.
func fleetServer(t *testing.T, key string, holders ...string) *Server {
	t.Helper()
	srv, _ := startServer(t, Config{
		Installed:     true,
		Locator:       fakeLocator{holders: map[string][]string{key: holders}},
		AdvertiseAddr: "self:0",
	})
	return srv
}

// TestResolveBlobStaleFirstHolder is the stale-holder regression test: the
// registry's index lags evictions, so the first Located holder may no
// longer have the blob. The search must continue to the remaining holders
// instead of giving up (which forced a NeedBlob re-upload or a full
// resend).
func TestResolveBlobStaleFirstHolder(t *testing.T) {
	want, payload := testSnap(t, tinyModel(t, "tiny"), 1)
	key := snapshot.HashEncoded(payload)
	stale := blobPeer(t, nil) // evicted: answers a clean error
	good := blobPeer(t, map[string][]byte{key: payload})

	srv := fleetServer(t, key, stale, good)
	got, err := srv.recoverBase("roamer", key, nil)
	if err != nil {
		t.Fatalf("recoverBase with a stale first holder: %v", err)
	}
	if hash, err := got.Hash(); err != nil || hash != key || got.AppID != want.AppID {
		t.Fatalf("recovered state hashes to %s (err %v), want %s", hash, err, key)
	}
	// The fetched blob is held locally for later requests and peers.
	if blob, ok := srv.store.Blob(key); !ok || string(blob) != string(payload) {
		t.Fatal("resolved blob not stored")
	}
}

// TestResolveBlobBadContentFirstHolder pins that content verification runs
// inside the holder loop: a first holder serving bytes that fail the
// caller's verification must not end the search.
func TestResolveBlobBadContentFirstHolder(t *testing.T) {
	model := tinyModel(t, "tiny")
	_, payload := testSnap(t, model, 1)
	_, wrong := testSnap(t, model, 2)
	key := snapshot.HashEncoded(payload)
	bad := blobPeer(t, map[string][]byte{key: wrong})
	good := blobPeer(t, map[string][]byte{key: payload})

	srv := fleetServer(t, key, bad, good)
	if _, err := srv.recoverBase("roamer", key, nil); err != nil {
		t.Fatalf("recoverBase with a bad first holder: %v", err)
	}
	// The bad bytes must not have been stored along the way.
	if blob, ok := srv.store.Blob(key); !ok || string(blob) != string(payload) {
		t.Fatalf("store holds %d bytes under %s (held %v), want the verified bytes", len(blob), key, ok)
	}
	if srv.store.Entries() != 1 {
		t.Fatalf("store holds %d entries, want only the verified state", srv.store.Entries())
	}
}

// TestResolveBlobAllHoldersStale pins the terminal case: every holder
// evicted means errBlobUnavailable (the pre-send path answers NeedBlob and
// the client re-uploads; a delta answers ErrBaseMismatch and the client
// resends full).
func TestResolveBlobAllHoldersStale(t *testing.T) {
	const key = "blob-key"
	srv := fleetServer(t, key, blobPeer(t, nil), blobPeer(t, nil))
	if _, err := srv.recoverBase("roamer", key, nil); !errors.Is(err, errBlobUnavailable) {
		t.Fatalf("recoverBase with every holder stale: %v, want errBlobUnavailable", err)
	}
	if srv.store.Entries() != 0 {
		t.Fatal("a failed recovery stored something")
	}
}
