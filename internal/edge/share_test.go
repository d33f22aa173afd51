package edge

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"net"
	"testing"
	"time"

	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/testutil"
)

// wideModel is a 4 MB model (one 1024x1024 fully connected layer): big
// enough that decoding or hashing its weights dwarfs the fixed cost of
// handling a frame.
func wideModel(t *testing.T) *nn.Network {
	t.Helper()
	in, err := nn.NewInput("data", 1024, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewFC("fc", 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("wide", in, fc, nn.NewSoftmax("prob"))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(7)
	return net
}

// TestRefPreSendLinksHeldModel pins the local hit of a reference pre-send:
// when the store already holds the named key — here under another app — the
// new app is given a reference to that very model, with nothing decoded,
// copied or hashed on the way. The server is standalone: a store hit needs
// no fleet identity.
func TestRefPreSendLinksHeldModel(t *testing.T) {
	srv, _ := startServer(t, Config{Installed: true})
	model := wideModel(t)
	if err := srv.store.Put("owner", "wide", model); err != nil {
		t.Fatal(err)
	}
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		t.Fatal(err)
	}
	hdr := protocol.ModelPreSendHeader{
		AppID: "borrower", ModelName: "wide", Spec: spec,
		BlobKey: nn.Fingerprint(model), RefOnly: true,
	}
	msg, err := protocol.Encode(protocol.MsgModelPreSend, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := srv.newRequest(msg)

	var resp protocol.Message
	spent := int64(testutil.MeasureAllocs(1, func() { resp, err = srv.dispatch(req) }).Bytes)
	if err != nil {
		t.Fatal(err)
	}
	var ack protocol.AckHeader
	if err := protocol.DecodeHeader(resp, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.NeedBlob || srv.refPreSendHits.Value() != 1 {
		t.Fatalf("ack = %+v with %d hits, want a hit for a key the store holds", ack, srv.refPreSendHits.Value())
	}
	if spent*100 >= model.ModelBytes() {
		t.Errorf("local reference hit allocated %d B for a %d B model, want under 1%%", spent, model.ModelBytes())
	}
	owner, _ := srv.store.Get("owner", "wide")
	borrower, ok := srv.store.Get("borrower", "wide")
	if !ok || borrower != owner || owner != model {
		t.Errorf("apps resolve %p and %p, want both the stored model %p", owner, borrower, model)
	}
	if srv.store.Entries() != 1 || srv.store.Bytes() != model.ResidentBytes() {
		t.Errorf("store holds %d entries, %d B; want the one model, charged once",
			srv.store.Entries(), srv.store.Bytes())
	}
}

// TestPeerFetchedModelFingerprintsToKey pins how a model blob is produced:
// the store keeps no upload bytes, so what a peer fetches under a model's
// fingerprint is encoded from the held model on demand, and it must rebuild
// a model with that fingerprint — whether the holder decoded it off the
// wire or, after a restart, loaded it from its model directory.
func TestPeerFetchedModelFingerprintsToKey(t *testing.T) {
	model := tinyModel(t, "tiny")
	key := nn.Fingerprint(model)
	dir := t.TempDir()

	// fetchFrom sends a reference pre-send to a fresh fleet server whose
	// only way to the model is the holder.
	fetchFrom := func(stage, holder string) {
		t.Helper()
		fetcher, addr := startServer(t, Config{
			Installed:     true,
			AdvertiseAddr: "fetcher:0",
			Locator:       fakeLocator{holders: map[string][]string{key: {holder}}},
		})
		ps, err := dial(t, addr).PreSendModel("roamer", "tiny", model, "")
		if err != nil || ps.Uploaded != 0 {
			t.Fatalf("%s: pre-send uploaded %d B, err %v; want the reference resolved", stage, ps.Uploaded, err)
		}
		if got := fetcher.blobPeerFetches.Value(); got != 1 {
			t.Fatalf("%s: %d peer fetches, want 1", stage, got)
		}
		rebuilt, ok := fetcher.store.Get("roamer", "tiny")
		if !ok || nn.Fingerprint(rebuilt) != key {
			t.Fatalf("%s: rebuilt model (held %v) does not fingerprint to %s", stage, ok, key)
		}
	}

	uploaded, addr := startServer(t, Config{Installed: true, AdvertiseAddr: "holder:0", ModelDir: dir})
	if _, err := dial(t, addr).PreSendModel("owner", "tiny", model, ""); err != nil {
		t.Fatal(err)
	}
	fetchFrom("uploaded", addr)
	if got := uploaded.blobsServed.Value(); got != 1 {
		t.Errorf("holder served %d blobs, want 1", got)
	}

	// A second server over the same directory never saw the upload.
	restarted, addr := startServer(t, Config{Installed: true, AdvertiseAddr: "holder:0", ModelDir: dir})
	if keys := restarted.BlobKeys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("restarted server advertises %v, want the reloaded model %s", keys, key)
	}
	fetchFrom("reloaded", addr)
}

// FuzzModelPreSend feeds arbitrary pre-send headers and bodies through the
// server's dispatch, on a fleet-joined server whose locator names a peer
// holding one model. Whatever the bytes, the server must not panic, and an
// ACK without NeedBlob must leave the app's model in the store under a key
// it fingerprints to — whether the model came up as weights, was already
// held, or was fetched from the peer — the weights raw or packed. Each input
// gets an empty store, so what one input stored cannot answer another.
//
// The seeds are a few hundred bytes: the fuzzer minimises every new
// interesting input, in time quadratic in its length, so seeds of a
// catalog model's size (kilobytes of weights) spend each minimisation's
// whole time limit at 0 execs/s. The peer answers over an in-memory pipe,
// and the server is built once, for the same reason.
func FuzzModelPreSend(f *testing.F) {
	model := fuzzModel(f)
	key, weights := nn.Fingerprint(model), modelBlob(f, model)
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		f.Fatal(err)
	}
	header := func(h protocol.ModelPreSendHeader) []byte {
		h.AppID, h.ModelName, h.Spec = "fuzz", "tiny", spec
		b, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	truncated := weights[:len(weights)/2]
	f.Add(header(protocol.ModelPreSendHeader{BodyCRC: protocol.BodyChecksum(weights)}), weights)
	f.Add(header(protocol.ModelPreSendHeader{BlobKey: key, RefOnly: true}), []byte(nil))
	f.Add(header(protocol.ModelPreSendHeader{RefOnly: true}), []byte(nil))
	f.Add(header(protocol.ModelPreSendHeader{BodyCRC: protocol.BodyChecksum(truncated)}), truncated)
	// The weights as a packed upload: byte planes through DEFLATE, written
	// whatever they save.
	var packed bytes.Buffer
	fw, err := flate.NewWriter(&packed, flate.HuffmanOnly)
	if err == nil {
		if err = nn.PackPlanes(fw, weights); err == nil {
			err = fw.Close()
		}
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Add(header(protocol.ModelPreSendHeader{
		BodyCRC:  protocol.BodyChecksum(packed.Bytes()),
		Encoding: protocol.EncodingPacked, PlainLen: int64(len(weights)),
	}), packed.Bytes())

	blobs := map[string][]byte{key: weights}
	srv, err := NewServer(Config{
		Catalog: testCatalog(f), Installed: true, AdvertiseAddr: "fuzz:0",
		Locator: fakeLocator{holders: map[string][]string{key: {"peer:0"}}},
		PeerDial: func(string, time.Duration) (net.Conn, error) {
			c, peer := net.Pipe()
			go serveBlob(peer, blobs)
			return c, nil
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	f.Fuzz(func(t *testing.T, header, body []byte) {
		srv.store = newSessionStore(0)
		req := srv.newRequest(protocol.Message{Type: protocol.MsgModelPreSend, Header: header, Body: body})
		resp, err := srv.dispatch(req)
		if err != nil || resp.Type != protocol.MsgAck {
			return
		}
		var ack protocol.AckHeader
		if err := protocol.DecodeHeader(resp, &ack); err != nil {
			t.Fatalf("undecodable ACK: %v", err)
		}
		if ack.NeedBlob {
			return
		}
		h := req.hdr.(*protocol.ModelPreSendHeader)
		net, ok := srv.store.Get(h.AppID, h.ModelName)
		srv.store.mu.Lock()
		held := srv.store.models[h.AppID][h.ModelName]
		srv.store.mu.Unlock()
		if !ok || nn.Fingerprint(net) != held {
			t.Fatalf("ACKed %q/%q, but the store holds it %v under key %q", h.AppID, h.ModelName, ok, held)
		}
	})
}

// fuzzModel is the smallest network with TinyNet's layer kinds (input,
// conv, ReLU, pool, FC, softmax): 32 bytes of weights.
func fuzzModel(t testing.TB) *nn.Network {
	t.Helper()
	in, err := nn.NewInput("data", 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := nn.NewConv("conv", 1, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := nn.NewPool("pool", nn.MaxPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewFC("fc", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("tiny", in, conv, nn.NewReLU("relu"), pool, fc, nn.NewSoftmax("prob"))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(3)
	return net
}
