package edge

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"websnap/internal/nn"
	"websnap/internal/protocol"
)

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
	if s.Bytes() != model.ResidentBytes() {
		t.Fatalf("Bytes = %d, want one copy (%d)", s.Bytes(), model.ResidentBytes())
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
// models through a small store never exceeds the cap, evicts in LRU order
// where a read counts as use, reports the evictions, and lists the
// survivors most recently used first.
func TestSessionStoreLRUEvictionUnderLoad(t *testing.T) {
	size := tinyModel(t, "model-1").ResidentBytes()
	cap := 3*size + size/2 // room for three models, not four
	s := newSessionStore(cap)

	keys := make([]string, 0, 12)
	for i := 1; i <= 12; i++ {
		model := tinyModel(t, fmt.Sprintf("model-%d", i))
		key := nn.Fingerprint(model)
		if slices.Contains(keys, key) {
			t.Fatal("distinct models fingerprinted to one key; test is vacuous")
		}
		if err := s.Put(fmt.Sprintf("app-%d", i), "tiny", model); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		if s.Bytes() > cap {
			t.Fatalf("after model %d: Bytes %d exceeds cap %d", i, s.Bytes(), cap)
		}
		// Every listed key is an entry and the newest leads the list.
		if mru := s.KeysMRU(); len(mru) != s.Entries() || mru[0] != key {
			t.Fatalf("after model %d: KeysMRU = %v, want %d keys led by %s", i, mru, s.Entries(), key)
		}
		if i == 3 {
			// Reading app-1's model makes it the hottest, so the fourth
			// store evicts app-2's, the least recently used.
			if _, ok := s.Get("app-1", "tiny"); !ok {
				t.Fatal("app-1 model missing before cap pressure")
			}
		}
		if mru := s.KeysMRU(); i == 4 && (!slices.Contains(mru, keys[0]) || slices.Contains(mru, keys[1])) {
			t.Fatalf("first eviction took the wrong entry: KeysMRU %v, want app-1's %s kept and app-2's %s gone",
				mru, keys[0], keys[1])
		}
	}
	if got, want := s.Evictions(), int64(len(keys)-s.Entries()); got == 0 || got != want {
		t.Fatalf("Evictions = %d, want %d (12 models through a 3-model store)", got, want)
	}
	// An evicted model's app slot is gone with it.
	if _, ok := s.Get("app-2", "tiny"); ok {
		t.Fatal("LRU model survived cap pressure")
	}
	if _, ok := s.Get("app-12", "tiny"); !ok {
		t.Fatal("most recent model evicted")
	}
}

// TestSessionStoreKeepsOversizedEntry pins the rule that replaces a blob
// cache's refusal of oversized blobs: the entry just stored is never the
// eviction victim — its session needs it now — so one larger than the
// whole cap displaces everything else and leaves the store over budget
// until the next store.
func TestSessionStoreKeepsOversizedEntry(t *testing.T) {
	resident, model := tinyModel(t, "resident"), tinyModel(t, "tiny")
	s := newSessionStore(model.ResidentBytes() - 1) // room for neither model
	if err := s.Put("app", "resident", resident); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("app", "tiny", model); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("app", "tiny"); !ok {
		t.Fatal("the model just stored was evicted")
	}
	if _, ok := s.Get("app", "resident"); ok || s.Entries() != 1 {
		t.Fatalf("oversized entry did not displace the resident model (entries %d)", s.Entries())
	}
	if s.Bytes() != model.ResidentBytes() || s.Bytes() <= s.MaxBytes() {
		t.Fatalf("Bytes = %d with cap %d, want the model's %d over budget", s.Bytes(), s.MaxBytes(), model.ResidentBytes())
	}
}

// TestSessionStoreEvictionCleansDisk pins that evicting a persisted model
// also removes its on-disk files — a disk-backed store's footprint is
// bounded too, and a restart cannot resurrect evicted entries.
func TestSessionStoreEvictionCleansDisk(t *testing.T) {
	dir := t.TempDir()
	a := tinyModel(t, "model-a")
	cap := a.ResidentBytes() + a.ResidentBytes()/2 // room for one model, not two
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

func (l fakeLocator) Locate(keys []string, _ string) (map[string][]string, *protocol.SpanNode, error) {
	out := make(map[string][]string)
	for _, k := range keys {
		if h, ok := l.holders[k]; ok {
			out[k] = h
		}
	}
	return out, nil, nil
}

// blobPeer runs a minimal fleet peer: it answers MsgBlobGet for the blobs
// it holds and a clean error frame otherwise (exactly like a real server
// that evicted the blob).
func blobPeer(t testing.TB, blobs map[string][]byte) string {
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
			go serveBlob(c, blobs)
		}
	}()
	return ln.Addr().String()
}

// serveBlob answers one MsgBlobGet on c from blobs, then closes c.
func serveBlob(c net.Conn, blobs map[string][]byte) {
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

// refPreSend answers a reference pre-send of model for app "roamer" on srv,
// in process.
func refPreSend(t *testing.T, srv *Server, model *nn.Network) protocol.AckHeader {
	t.Helper()
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		t.Fatal(err)
	}
	hdr := protocol.ModelPreSendHeader{
		AppID: "roamer", ModelName: "tiny", Spec: spec, BlobKey: nn.Fingerprint(model), RefOnly: true,
	}
	req, err := protocol.Encode(protocol.MsgModelPreSend, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.dispatch(srv.newRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	var ack protocol.AckHeader
	if err := protocol.DecodeHeader(resp, &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// modelBlob is the blob a peer serves under model's fingerprint.
func modelBlob(t testing.TB, model *nn.Network) []byte {
	t.Helper()
	return model.WeightBlob()
}

// TestResolveBlobStaleFirstHolder is the stale-holder regression test: the
// registry's index lags evictions, so the first Located holder may no
// longer have the blob. The search must continue to the remaining holders
// instead of giving up (which forced a NeedBlob re-upload).
func TestResolveBlobStaleFirstHolder(t *testing.T) {
	model := tinyModel(t, "tiny")
	key, payload := nn.Fingerprint(model), modelBlob(t, model)
	stale := blobPeer(t, nil) // evicted: answers a clean error
	good := blobPeer(t, map[string][]byte{key: payload})

	srv := fleetServer(t, key, stale, good)
	if ack := refPreSend(t, srv, model); ack.NeedBlob {
		t.Fatal("reference pre-send with a stale first holder answered NeedBlob")
	}
	if got, ok := srv.store.Get("roamer", "tiny"); !ok || nn.Fingerprint(got) != key {
		t.Fatalf("resolved model (held %v) does not fingerprint to %s", ok, key)
	}
	// The fetched blob is held locally for later requests and peers.
	if blob, ok := srv.store.Blob(key); !ok || !bytes.Equal(blob, payload) {
		t.Fatal("resolved blob not stored")
	}
}

// TestResolveBlobBadContentFirstHolder pins that content verification runs
// inside the holder loop: a first holder serving bytes that fail the
// caller's verification must not end the search.
func TestResolveBlobBadContentFirstHolder(t *testing.T) {
	model := tinyModel(t, "tiny")
	key, payload := nn.Fingerprint(model), modelBlob(t, model)
	wrong := modelBlob(t, tinyModel(t, "other"))
	if bytes.Equal(wrong, payload) {
		t.Fatal("the two models share their weights; test is vacuous")
	}
	bad := blobPeer(t, map[string][]byte{key: wrong})
	good := blobPeer(t, map[string][]byte{key: payload})

	srv := fleetServer(t, key, bad, good)
	if ack := refPreSend(t, srv, model); ack.NeedBlob {
		t.Fatal("reference pre-send with a bad first holder answered NeedBlob")
	}
	// The bad bytes must not have been stored along the way.
	if blob, ok := srv.store.Blob(key); !ok || !bytes.Equal(blob, payload) {
		t.Fatalf("store holds %d bytes under %s (held %v), want the verified bytes", len(blob), key, ok)
	}
	if srv.store.Entries() != 1 {
		t.Fatalf("store holds %d entries, want only the verified model", srv.store.Entries())
	}
}

// TestResolveBlobAllHoldersStale pins the terminal case: every holder
// evicted means the pre-send answers NeedBlob and the client re-uploads.
func TestResolveBlobAllHoldersStale(t *testing.T) {
	model := tinyModel(t, "tiny")
	srv := fleetServer(t, nn.Fingerprint(model), blobPeer(t, nil), blobPeer(t, nil))
	if ack := refPreSend(t, srv, model); !ack.NeedBlob {
		t.Fatal("reference pre-send with every holder stale was acknowledged")
	}
	if srv.store.Entries() != 0 {
		t.Fatal("a failed resolution stored something")
	}
}
