package edge

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"websnap/internal/mlapp"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
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
	if got, ok := s.GetState("app"); !ok || got != snapB {
		t.Fatal("GetState does not return the latest state")
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
	s.putModel("app-1", "tiny", model)
	s.putModel("app-2", "tiny", model)
	if s.Entries() != 1 {
		t.Fatalf("identical model for two apps stored %d times", s.Entries())
	}
	if s.Bytes() != model.ModelBytes() {
		t.Fatalf("Bytes = %d, want one copy (%d)", s.Bytes(), model.ModelBytes())
	}
	// app-1 replaces its model; app-2's reference keeps the entry alive.
	s.putModel("app-1", "tiny", other)
	if _, ok := s.Get("app-2", "tiny"); !ok {
		t.Fatal("shared entry released while still referenced")
	}
	if s.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries())
	}
	// app-2 replaces too: the original entry's last reference goes.
	s.putModel("app-2", "tiny", other)
	if s.Entries() != 1 {
		t.Fatalf("unreferenced entry retained: entries = %d", s.Entries())
	}
}

// TestSessionStoreLRUEvictionUnderLoad pins the byte bound: pushing many
// states through a small store never exceeds the cap, evicts in LRU order,
// and reports the evictions.
func TestSessionStoreLRUEvictionUnderLoad(t *testing.T) {
	model := tinyModel(t, "tiny")
	_, data := testSnap(t, model, 1)
	size := int64(len(data))
	cap := 3 * size
	s := newSessionStore(cap)
	var evicted []string
	s.onEvict = func(key string) { evicted = append(evicted, key) }

	keys := make([]string, 0, 12)
	for i := uint64(1); i <= 12; i++ {
		snap, data := testSnap(t, model, i)
		key := s.PutState(fmt.Sprintf("app-%d", i), snap, data)
		keys = append(keys, key)
		if s.Bytes() > cap {
			t.Fatalf("after state %d: Bytes %d exceeds cap %d", i, s.Bytes(), cap)
		}
	}
	if s.Evictions() == 0 {
		t.Fatal("12 states through a 3-state store evicted nothing")
	}
	if int64(len(evicted)) != s.Evictions() {
		t.Fatalf("onEvict saw %d keys, Evictions = %d", len(evicted), s.Evictions())
	}
	// The earliest (least recently used) state was evicted; its app's
	// synced-state slot is gone with it.
	if _, ok := s.GetState("app-1"); ok {
		t.Fatal("LRU state survived cap pressure")
	}
	if _, ok := s.GetState("app-12"); !ok {
		t.Fatal("most recent state evicted")
	}
	if evicted[0] != keys[0] {
		t.Fatalf("first eviction %s, want LRU key %s", evicted[0], keys[0])
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

// fakeBlobCache is a BlobCache with Delete, recording what the server
// drops when the session store evicts.
type fakeBlobCache struct {
	mu      sync.Mutex
	m       map[string][]byte
	deleted []string
}

func newFakeBlobCache() *fakeBlobCache { return &fakeBlobCache{m: make(map[string][]byte)} }

func (c *fakeBlobCache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok {
		c.m[key] = append([]byte(nil), data...)
	}
}

func (c *fakeBlobCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[key]
	return d, ok
}

func (c *fakeBlobCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	return keys
}

func (c *fakeBlobCache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
	c.deleted = append(c.deleted, key)
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

// TestStoreEvictionDropsFleetBlob pins the eviction round trip inside the
// server: when the bounded session store evicts a synced state, the server
// drops the same key from its fleet blob cache, so the next heartbeat
// (which advertises BlobKeys) stops claiming it.
func TestStoreEvictionDropsFleetBlob(t *testing.T) {
	model := tinyModel(t, "tiny")
	blobs := newFakeBlobCache()
	// Just enough room for the model plus a sliver: every stored state
	// forces cap pressure, so evictions are guaranteed regardless of the
	// encoded state size.
	srv, addr := startServer(t, Config{
		Installed:     true,
		MaxStoreBytes: model.ModelBytes() + 64,
		Blobs:         blobs,
		AdvertiseAddr: "self:0",
	})
	conn := dial(t, addr)
	if err := conn.PreSendModel("evict-app", "tiny", model, false); err != nil {
		t.Fatal(err)
	}

	// Each offload publishes its synced state; cap pressure must evict
	// older states and retract their blobs.
	var firstKey string
	for i := uint64(1); i <= 4; i++ {
		app, err := mlapp.NewFullApp(fmt.Sprintf("evict-app-%d", i), "tiny", model, tinyLabels)
		if err != nil {
			t.Fatal(err)
		}
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, i)); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Capture(app, snapshot.Options{
			PendingEvent: &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
		})
		if err != nil {
			t.Fatal(err)
		}
		wire, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.PreSendModel(fmt.Sprintf("evict-app-%d", i), "tiny", model, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := conn.OffloadSnapshot(fmt.Sprintf("evict-app-%d", i), wire, false); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// The state blob is the advertised key that is not the model's
			// fingerprint (the pre-send published that one).
			for _, k := range srv.BlobKeys() {
				if k != nn.Fingerprint(model) {
					firstKey = k
				}
			}
			if firstKey == "" {
				t.Fatal("first offload published no state blob")
			}
		}
	}
	if srv.store.Evictions() == 0 {
		t.Fatal("cap pressure evicted nothing; test is vacuous")
	}
	if srv.store.Bytes() > srv.store.MaxBytes() {
		t.Fatalf("store bytes %d exceed cap %d", srv.store.Bytes(), srv.store.MaxBytes())
	}
	if _, ok := blobs.Get(firstKey); ok {
		t.Fatal("evicted state's blob still in the fleet cache; heartbeat would advertise it")
	}
	for _, k := range srv.BlobKeys() {
		if k == firstKey {
			t.Fatal("evicted key still advertised by BlobKeys")
		}
	}
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

// TestResolveBlobStaleFirstHolder is the stale-holder regression test: the
// registry's index lags evictions, so the first Located holder may no
// longer have the blob. The search must continue to the remaining holders
// instead of giving up (which forced a NeedBlob re-upload).
func TestResolveBlobStaleFirstHolder(t *testing.T) {
	payload := []byte("the-blob-bytes")
	const key = "blob-key"
	stale := blobPeer(t, nil) // evicted: answers a clean error
	good := blobPeer(t, map[string][]byte{key: payload})

	srv, _ := startServer(t, Config{
		Installed:     true,
		Blobs:         newFakeBlobCache(),
		Locator:       fakeLocator{holders: map[string][]string{key: {stale, good}}},
		AdvertiseAddr: "self:0",
	})
	got, err := srv.resolveBlob(key, nil, nil)
	if err != nil {
		t.Fatalf("resolveBlob with a stale first holder: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("resolved %q, want %q", got, payload)
	}
	// The fetched blob is cached locally for later requests and peers.
	if _, ok := srv.cfg.Blobs.Get(key); !ok {
		t.Fatal("resolved blob not cached")
	}
}

// TestResolveBlobBadContentFirstHolder pins that content verification runs
// inside the holder loop: a first holder serving bytes that fail the
// caller's verification must not end the search.
func TestResolveBlobBadContentFirstHolder(t *testing.T) {
	payload := []byte("the-real-bytes")
	const key = "blob-key"
	bad := blobPeer(t, map[string][]byte{key: []byte("wrong-content!")})
	good := blobPeer(t, map[string][]byte{key: payload})

	srv, _ := startServer(t, Config{
		Installed:     true,
		Blobs:         newFakeBlobCache(),
		Locator:       fakeLocator{holders: map[string][]string{key: {bad, good}}},
		AdvertiseAddr: "self:0",
	})
	verify := func(data []byte) error {
		if string(data) != string(payload) {
			return fmt.Errorf("content mismatch")
		}
		return nil
	}
	got, err := srv.resolveBlob(key, nil, verify)
	if err != nil {
		t.Fatalf("resolveBlob with a bad first holder: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("resolved %q, want %q", got, payload)
	}
	// The bad bytes must not have been cached along the way.
	if cached, ok := srv.cfg.Blobs.Get(key); !ok || string(cached) != string(payload) {
		t.Fatalf("cache holds %q, want verified bytes", cached)
	}
}

// TestResolveBlobAllHoldersStale pins the terminal case: every holder
// evicted means errBlobUnavailable (the pre-send path answers NeedBlob and
// the client re-uploads).
func TestResolveBlobAllHoldersStale(t *testing.T) {
	const key = "blob-key"
	stale1 := blobPeer(t, nil)
	stale2 := blobPeer(t, nil)
	srv, _ := startServer(t, Config{
		Installed:     true,
		Blobs:         newFakeBlobCache(),
		Locator:       fakeLocator{holders: map[string][]string{key: {stale1, stale2}}},
		AdvertiseAddr: "self:0",
	})
	if _, err := srv.resolveBlob(key, nil, nil); err == nil {
		t.Fatal("resolveBlob succeeded with every holder stale")
	}
}

var _ = time.Second
