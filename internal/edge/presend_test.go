package edge

import (
	"bytes"
	"compress/flate"
	"math"
	"slices"
	"testing"

	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/protocol"
)

// ageNetRear is AgeNet's rear model at 1st_pool: the 45.6 MB the paper's
// partial offload pre-sends.
func ageNetRear(t *testing.T) *nn.Network {
	t.Helper()
	full, err := models.Build(models.AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	points, err := full.PartitionPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Label == "1st_pool" {
			_, rear, err := full.Split(p.Index)
			if err != nil {
				t.Fatal(err)
			}
			return rear
		}
	}
	t.Fatal("AgeNet has no 1st_pool")
	return nil
}

// weightBodies is a model's weight blob and its packed form.
func weightBodies(t *testing.T, model *nn.Network) (blob, packed []byte) {
	t.Helper()
	blob = modelBlob(t, model)
	packed, ok, err := protocol.CompressBody(nil, blob, flate.HuffmanOnly, nn.PackPlanes)
	if err != nil || !ok {
		t.Fatalf("packing the weights: ok %v, err %v", ok, err)
	}
	return blob, packed
}

// uploadFrame is an uploaded pre-send of model under appID, its body packed
// when packedLen (the blob's length) is non-zero.
func uploadFrame(t *testing.T, appID string, model *nn.Network, body []byte, packedLen int64) protocol.Message {
	t.Helper()
	spec, err := model.SpecJSON()
	if err != nil {
		t.Fatal(err)
	}
	hdr := protocol.ModelPreSendHeader{
		AppID: appID, ModelName: model.Name(), Spec: spec,
		BodyCRC: protocol.BodyChecksum(body),
	}
	if packedLen != 0 {
		hdr.Encoding, hdr.PlainLen = protocol.EncodingPacked, packedLen
	}
	req, err := protocol.Encode(protocol.MsgModelPreSend, hdr, body)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestPackedAndRawUploadsStoreOneModel: AgeNet's rear uploaded raw to one
// server and packed to another is stored under one key — the model's
// nn.Fingerprint — and the two stored models compute bit-identical outputs,
// equal to the client's own. Each server counts the wire bytes it was sent
// under the encoding they came in.
func TestPackedAndRawUploadsStoreOneModel(t *testing.T) {
	rear := ageNetRear(t)
	blob, packed := weightBodies(t, rear)
	if len(packed) >= len(blob)*9/10 {
		t.Fatalf("AgeNet's rear packs to %d of %d bytes: the test needs it to travel packed", len(packed), len(blob))
	}
	key := nn.Fingerprint(rear)
	in := chainInput(t, rear)
	want, err := rear.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		body      []byte
		packedLen int64
	}{
		{"raw", blob, 0},
		{"packed", packed, int64(len(blob))},
	} {
		srv, addr := startServer(t, Config{Installed: true})
		if resp := rawRequest(t, addr, uploadFrame(t, "rear-app", rear, c.body, c.packedLen)); resp.Type != protocol.MsgAck {
			t.Fatalf("%s upload answered %s", c.name, resp.Type)
		}
		if got := srv.Store().KeysMRU(); !slices.Equal(got, []string{key}) {
			t.Errorf("%s upload stored under %v, want [%s]", c.name, got, key)
		}
		m := srv.Metrics()
		if wire := map[string]int64{"raw": m.PreSendRawBytes, "packed": m.PreSendPackedBytes}; wire[c.name] != int64(len(c.body)) || m.PreSendRawBytes+m.PreSendPackedBytes != int64(len(c.body)) {
			t.Errorf("%s upload of %d bytes counted raw %d, packed %d", c.name, len(c.body), m.PreSendRawBytes, m.PreSendPackedBytes)
		}
		stored, ok := srv.Store().Get("rear-app", rear.Name())
		if !ok {
			t.Fatalf("%s upload: model not stored", c.name)
		}
		got, err := stored.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%s upload: output %d is %v, the client's model computes %v", c.name, i, v, want.Data()[i])
			}
		}
	}
}

// TestCorruptPackedPreSendIsCleanError: a packed upload that does not decode
// to its model — a bit flipped after the sender checksummed it, a wrong
// declared length, a truncated stream, planes of another length, a packed
// body declared raw — is answered with an error frame, and nothing is
// stored.
func TestCorruptPackedPreSendIsCleanError(t *testing.T) {
	model := tinyModel(t, "tiny")
	blob, packed := weightBodies(t, model)
	// The link flips a bit after the sender checksummed the body.
	transit := uploadFrame(t, "bad", model, packed, int64(len(blob)))
	transit.Body = bytes.Clone(packed)
	transit.Body[len(packed)/3] ^= 0x10
	notPlanes, ok, err := protocol.CompressBody(nil, blob[:len(blob)-4], flate.HuffmanOnly, nn.PackPlanes)
	if err != nil || !ok {
		t.Fatalf("packing: ok %v, err %v", ok, err)
	}
	for _, c := range []struct {
		name string
		req  protocol.Message
	}{
		{"bit flipped in transit", transit},
		{"declared one byte short", uploadFrame(t, "bad", model, packed, int64(len(blob)-1))},
		{"declared one byte long", uploadFrame(t, "bad", model, packed, int64(len(blob)+1))},
		{"truncated", uploadFrame(t, "bad", model, packed[:len(packed)/2], int64(len(blob)))},
		{"a shorter blob's planes", uploadFrame(t, "bad", model, notPlanes, int64(len(blob)))},
		{"packed body sent as raw", uploadFrame(t, "bad", model, packed, 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, addr := startServer(t, Config{Installed: true})
			if resp := rawRequest(t, addr, c.req); resp.Type != protocol.MsgError {
				t.Fatalf("answered %s, want an error frame", resp.Type)
			}
			if m := srv.Metrics(); m.ModelsStored != 0 || srv.Store().Entries() != 0 {
				t.Errorf("stored %d models, %d entries", m.ModelsStored, srv.Store().Entries())
			}
		})
	}
}
