package protocol

import (
	"bytes"
	"errors"
	"testing"
	"unicode/utf8"
)

// FuzzRead hardens the frame parser: arbitrary bytes must either parse into
// a message that round-trips, or fail cleanly — never panic or over-read.
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
		if err != nil {
			return
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
// frame, parse, and decode back field-for-field, and the body checksum must
// verify exactly when it was computed over the bytes that arrived.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), "app", "", []byte(nil), false)
	f.Add(uint64(1), "a", "", []byte("body"), false)
	f.Add(uint64(7), "roam-app", "0123456789abcdef", []byte("snapshot body"), false)
	f.Add(uint64(1)<<40, "x", "deadbeef", bytes.Repeat([]byte{0xA5}, 300), true)
	f.Add(uint64(1), "", "", []byte{0}, true)
	f.Fuzz(func(t *testing.T, seq uint64, appID, traceID string, body []byte, flipCRC bool) {
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
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("failed to read back own frame: %v", err)
		}
		if got.Type != MsgSnapshot || !bytes.Equal(got.Body, body) {
			t.Fatalf("frame did not round-trip: type %v, body %d bytes", got.Type, len(got.Body))
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
