package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzRead hardens the frame parser: arbitrary bytes must either parse into
// a message that round-trips, or fail cleanly — never panic or over-read —
// and a connection's buffered reader must parse them exactly as a plain
// one does.
func FuzzRead(f *testing.F) {
	msg, err := Encode(MsgSnapshot, SnapshotHeader{AppID: "a", Seq: 1}, []byte("body"))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, msg); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 18))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		buffered, bufErr := Read(NewReader(bytes.NewReader(data)))
		if (err == nil) != (bufErr == nil) || (err != nil && errors.Is(bufErr, io.ErrUnexpectedEOF) != errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("plain read: %v; buffered read: %v", err, bufErr)
		}
		if err != nil {
			return
		}
		if buffered.Type != got.Type || !bytes.Equal(buffered.Header, got.Header) || !bytes.Equal(buffered.Body, got.Body) {
			t.Fatal("buffered read parsed another frame")
		}
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			t.Errorf("parsed message failed to re-frame: %v", err)
			return
		}
		reread, err := Read(&out)
		if err != nil {
			t.Errorf("re-framed message failed to parse: %v", err)
			return
		}
		if reread.Type != got.Type || !bytes.Equal(reread.Header, got.Header) || !bytes.Equal(reread.Body, got.Body) {
			t.Error("round trip not stable")
		}
	})
}

// FuzzFrameRoundTrip fuzzes the structured path: a SnapshotHeader must
// frame, cross a net.Pipe, parse, and decode back field-for-field, and the
// body checksum must verify exactly when it was computed over the bytes that
// arrived. With noHeader the frame goes without its header: a rendezvous
// transport blocks a 0-byte write for a read the peer never issues, so an
// empty header or body must not be written at all.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), "app", "", []byte(nil), false, false)
	f.Add(uint64(1), "a", "", []byte("body"), false, false)
	f.Add(uint64(7), "roam-app", "0123456789abcdef", []byte("snapshot body"), false, false)
	f.Add(uint64(1)<<40, "x", "deadbeef", bytes.Repeat([]byte{0xA5}, 300), true, false)
	f.Add(uint64(1), "", "", []byte{0}, true, false)
	f.Add(uint64(0), "", "", []byte(nil), false, true)
	f.Add(uint64(0), "", "", []byte("body"), false, true)
	f.Add(uint64(0), "", "", bytes.Repeat([]byte{0x5A}, 70<<10), false, true)
	f.Fuzz(func(t *testing.T, seq uint64, appID, traceID string, body []byte, flipCRC, noHeader bool) {
		if len(appID)+len(traceID) > MaxHeaderLen/2 {
			return // oversized metadata is rejected by Write, not round-tripped
		}
		hdr := SnapshotHeader{
			AppID:   appID,
			Seq:     seq,
			TraceID: traceID,
			BodyCRC: BodyChecksum(body),
		}
		if flipCRC {
			hdr.BodyCRC++
		}
		msg, err := Encode(MsgSnapshot, hdr, body)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if noHeader {
			msg.Header = nil
		}
		got := pipeRoundTrip(t, msg)
		if got.Type != MsgSnapshot || !bytes.Equal(got.Header, msg.Header) || !bytes.Equal(got.Body, body) {
			t.Fatalf("frame did not round-trip: type %v, header %d bytes, body %d bytes", got.Type, len(got.Header), len(got.Body))
		}
		if noHeader {
			return
		}
		var back SnapshotHeader
		if err := DecodeHeader(got, &back); err != nil {
			t.Fatalf("decode header: %v", err)
		}
		if back.Seq != seq || back.BodyCRC != hdr.BodyCRC {
			t.Errorf("header round-trip mismatch: got %+v, sent %+v", back, hdr)
		}
		// JSON replaces invalid UTF-8 in strings, so only well-formed
		// identifiers are expected back verbatim.
		if utf8.ValidString(appID) && back.AppID != appID {
			t.Errorf("appID round-trip: got %q, sent %q", back.AppID, appID)
		}
		if utf8.ValidString(traceID) && back.TraceID != traceID {
			t.Errorf("traceID round-trip: got %q, sent %q", back.TraceID, traceID)
		}
		err = VerifyBody(got.Body, back.BodyCRC)
		switch {
		case back.BodyCRC == 0:
			// Zero means unchecked, regardless of how it came about.
			if err != nil {
				t.Errorf("zero checksum must be accepted: %v", err)
			}
		case flipCRC:
			if !errors.Is(err, ErrChecksum) {
				t.Errorf("corrupted checksum not detected (err = %v)", err)
			}
		default:
			if err != nil {
				t.Errorf("valid checksum rejected: %v", err)
			}
		}
	})
}

// pipeRoundTrip writes msg into one end of a net.Pipe and reads it from the
// other through a connection's buffered reader; a write that blocks fails
// the test at the pipe's deadline instead of hanging it.
func pipeRoundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	deadline := time.Now().Add(5 * time.Second)
	a.SetDeadline(deadline)
	b.SetDeadline(deadline)
	written := make(chan error, 1)
	go func() { written <- Write(a, msg) }()
	got, err := Read(NewReader(b))
	if err != nil {
		t.Fatalf("failed to read back own frame: %v", err)
	}
	if err := <-written; err != nil {
		t.Fatalf("write: %v", err)
	}
	return got
}
