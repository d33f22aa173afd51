package edge

import (
	"testing"

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
// copied or hashed on the way.
func TestRefPreSendLinksHeldModel(t *testing.T) {
	srv, _ := startServer(t, Config{Installed: true, AdvertiseAddr: "self:0"})
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
	req, err := protocol.Encode(protocol.MsgModelPreSend, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}

	var resp protocol.Message
	spent := int64(testutil.MeasureAllocs(1, func() { resp, err = srv.handleModelPreSend(req, &hdr) }).Bytes)
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
		needBlob, _, err := dial(t, addr).PreSendModelRefTraced("roamer", "tiny", model, "")
		if err != nil || needBlob {
			t.Fatalf("%s: reference pre-send: needBlob=%v err=%v", stage, needBlob, err)
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
	if err := dial(t, addr).PreSendModel("owner", "tiny", model); err != nil {
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
