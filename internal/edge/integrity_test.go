package edge

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// rawRequest sends one framed request and returns the raw response.
func rawRequest(t *testing.T, addr string, req protocol.Message) protocol.Message {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := protocol.Write(c, req); err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.Read(c)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// encodeClickSnapshot captures a ready-to-offload click snapshot.
func encodeClickSnapshot(t *testing.T, appID string, model *nn.Network) []byte {
	t.Helper()
	app, err := mlapp.NewFullApp(appID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 5)); err != nil {
		t.Fatal(err)
	}
	ev := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}
	snap, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &ev})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestSnapshotChecksumRejected is a regression test: a snapshot body that
// fails its header checksum must be answered with a typed checksum error and
// must never reach the scheduler — a single flipped bit in the feature
// array would otherwise execute and return a plausible-but-wrong result.
func TestSnapshotChecksumRejected(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	wire := encodeClickSnapshot(t, "crc-app", tinyModel(t, "tiny"))
	sum := protocol.BodyChecksum(wire)
	wire[len(wire)/2] ^= 0x04 // corrupt after checksumming

	req, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
		AppID: "crc-app", Seq: 1, BodyCRC: sum,
	}, wire)
	if err != nil {
		t.Fatal(err)
	}
	resp := rawRequest(t, addr, req)
	if resp.Type != protocol.MsgError {
		t.Fatalf("response type = %s, want error", resp.Type)
	}
	var hdr protocol.ErrorHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hdr.Message, "checksum") {
		t.Errorf("error message %q does not name the checksum", hdr.Message)
	}
	if m := srv.Metrics(); m.SnapshotsExecuted != 0 {
		t.Errorf("corrupted snapshot was executed (%d executions)", m.SnapshotsExecuted)
	}
}

// TestModelPreSendChecksumRejected: corrupted model weights must be refused
// before they are stored.
func TestModelPreSendChecksumRejected(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	model := tinyModel(t, "tiny")
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		t.Fatal(err)
	}
	var weights bytes.Buffer
	if err := model.EncodeWeights(&weights); err != nil {
		t.Fatal(err)
	}
	blob := weights.Bytes()
	sum := protocol.BodyChecksum(blob)
	blob[7] ^= 0x80

	req, err := protocol.Encode(protocol.MsgModelPreSend, protocol.ModelPreSendHeader{
		AppID: "crc-app", ModelName: "tiny", Spec: spec, BodyCRC: sum,
	}, blob)
	if err != nil {
		t.Fatal(err)
	}
	resp := rawRequest(t, addr, req)
	if resp.Type != protocol.MsgError {
		t.Fatalf("response type = %s, want error", resp.Type)
	}
	if m := srv.Metrics(); m.ModelsStored != 0 {
		t.Errorf("corrupted model was stored (%d stores)", m.ModelsStored)
	}
	if _, ok := srv.Store().Get("crc-app", "tiny"); ok {
		t.Error("corrupted model present in the store")
	}
}

// TestSpecOnlyReferenceMustMatchStoredModel: a spec-only snapshot declares
// the architecture of the model it names. When the store holds a different
// network under that name — here a 4-class TinyNet where the app was built
// with 3 — the offload is answered with an error frame and never executed.
// A session whose stored model is replaced that way runs the event on the
// device instead and keeps its connection.
func TestSpecOnlyReferenceMustMatchStoredModel(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	model := tinyModel(t, "tiny")
	imposter, err := models.BuildTinyNet("tiny", 4)
	if err != nil {
		t.Fatal(err)
	}
	storeImposter := func(appID string) {
		t.Helper()
		if err := dial(t, addr).PreSendModel(appID, "tiny", imposter); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("edge", func(t *testing.T) {
		storeImposter("ref-app")
		app, err := mlapp.NewFullApp("ref-app", "tiny", model, tinyLabels)
		if err != nil {
			t.Fatal(err)
		}
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 5)); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Capture(app, snapshot.Options{
			DefaultModelPolicy: snapshot.ModelSpecOnly,
			PendingEvent:       &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
		})
		if err != nil {
			t.Fatal(err)
		}
		wire, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		req, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
			AppID: "ref-app", Seq: 1, BodyCRC: protocol.BodyChecksum(wire),
		}, wire)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Metrics().SnapshotsExecuted
		resp := rawRequest(t, addr, req)
		if resp.Type != protocol.MsgError {
			t.Fatalf("response type = %s, want error", resp.Type)
		}
		var hdr protocol.ErrorHeader
		if err := protocol.DecodeHeader(resp, &hdr); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(hdr.Message, "architecture") {
			t.Errorf("error message %q does not name the architecture mismatch", hdr.Message)
		}
		if n := srv.Metrics().SnapshotsExecuted; n != before {
			t.Errorf("mismatched reference was executed (%d executions)", n-before)
		}
	})

	t.Run("client", func(t *testing.T) {
		img := mlapp.SyntheticImage(3*16*16, 6)
		want := localResult(t, model, img)
		app, err := mlapp.NewFullApp("swap-app", "tiny", model, tinyLabels)
		if err != nil {
			t.Fatal(err)
		}
		conn := dial(t, addr)
		off, err := client.NewOffloader(app, conn, client.Options{
			OffloadEventTypes: []string{mlapp.EventClick},
			Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
			LocalFallback:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		off.StartPreSend()
		if err := off.WaitForAcks(); err != nil {
			t.Fatal(err)
		}
		storeImposter("swap-app") // the acked model is replaced behind the session's back
		if err := mlapp.LoadImage(app, img); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatalf("run: %v", err)
		}
		if got := mlapp.Result(app); got != want {
			t.Errorf("result = %q, want the local %q", got, want)
		}
		if st := off.Stats(); st.LocalFallbacks != 1 || st.Offloads != 0 || st.Redials != 0 {
			t.Errorf("stats = %d fallbacks, %d offloads, %d redials; want 1, 0, 0", st.LocalFallbacks, st.Offloads, st.Redials)
		}
		if conn.Broken() {
			t.Error("an error frame broke the connection")
		}
		if _, _, err := conn.Ping(); err != nil {
			t.Errorf("ping after the refused offload: %v", err)
		}
	})
}
