package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync"
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
// arrived. With noHeader the frame goes without its header: an unbuffered
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

// FuzzChunkDemux drives a connection's demultiplexer with interleaved,
// torn, duplicated, unknown-Seq and over-long chunk streams, reassembled and
// piped: it never panics, never holds more than ChunkBudget of piped bytes
// unread, and every body it completes — reassembled or read off its
// Stream — is the concatenation of its chunks.
func FuzzChunkDemux(f *testing.F) {
	f.Add([]byte{0, 1, 10, 2, 1, 200, 2, 1, 255, 3, 1, 0, 6, 2, 0})
	f.Add([]byte{1, 3, 0, 2, 3, 255, 0, 1, 4, 2, 1, 9, 2, 3, 255, 2, 3, 255, 3, 3, 0, 3, 1, 0})
	f.Add([]byte{2, 5, 1, 0, 1, 0, 0, 1, 0})
	f.Add([]byte{1, 1, 0, 5, 1, 0})
	f.Add([]byte{0, 2, 0, 4, 2, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// pattern is the byte at offset i of any body of stream seq.
		pattern := func(seq uint64, i int) byte { return byte(int(seq)*31 + i*7) }
		var wire bytes.Buffer
		w := NewWriter(&wire)
		sent := map[uint64]int{}
		crcs := map[uint64]uint32{}
		for i := 0; i+2 < len(ops); i += 3 {
			seq, n := uint64(ops[i+1]%8), int(ops[i+2])*300
			switch ops[i] % 8 {
			case 0, 1: // open a reassembled or a piped body
				typ := MsgSnapshot
				if ops[i]%8 == 1 {
					typ = MsgModelPreSend
				}
				hdr := []byte(`{"seq":` + string(rune('0'+seq)) + `}`)
				head := make([]byte, openLen)
				putPrefix(head, typ|chunkedFlag, len(hdr), uint64(n))
				binary.LittleEndian.PutUint64(head[prefixLen:], seq)
				wire.Write(head)
				wire.Write(hdr)
				sent[seq], crcs[seq] = 0, 0
			case 2, 5: // a chunk, over-long when case 5
				n = min(n, ChunkSize)
				if ops[i]%8 == 5 {
					n = ChunkSize + 1
				}
				data := make([]byte, n)
				for j := range data {
					data[j] = pattern(seq, sent[seq]+j)
				}
				sent[seq] += n
				crcs[seq] = crc32.Update(crcs[seq], crcTable, data)
				if n > ChunkSize {
					head := make([]byte, prefixLen)
					copy(head, []byte{0x50, 0x4e, 0x53, 0x57, version, msgChunk})
					binary.LittleEndian.PutUint64(head[6:], seq)
					binary.LittleEndian.PutUint32(head[14:], uint32(n))
					wire.Write(head)
					wire.Write(data)
					continue
				}
				w.chunk(seq, data, 0, 0, time.Time{}) //nolint:errcheck // a Buffer does not fail
			case 3, 4: // the last chunk, with a wrong CRC when case 4
				crc := crcs[seq]
				if ops[i]%8 == 4 {
					crc = ^crc
				}
				w.chunk(seq, nil, lastChunk, crc, time.Time{}) //nolint:errcheck // a Buffer does not fail
			case 6: // a whole frame
				msg, _ := Encode(MsgPing, PingHeader{Seq: seq}, nil)
				Write(&wire, msg) //nolint:errcheck // a Buffer does not fail
			case 7: // a torn frame
				wire.Write([]byte{0x50, 0x4e, 0x53})
			}
		}
		complete := func(seq uint64, body []byte) {
			for j, b := range body {
				if b != pattern(seq, j) {
					t.Errorf("stream %d: completed body differs from its chunks at byte %d", seq, j)
					return
				}
			}
		}
		d := NewDemux(&wire)
		d.Pipe = func(t MsgType) bool { return t == MsgModelPreSend }
		var readers sync.WaitGroup
		defer readers.Wait()
		for {
			msg, err := d.Next()
			d.mu.Lock()
			held := d.buffered
			d.mu.Unlock()
			if held > ChunkBudget {
				t.Fatalf("the demux holds %d piped bytes unread", held)
			}
			if err != nil {
				return
			}
			var env MuxEnvelope
			DecodeHeader(msg, &env) //nolint:errcheck // the fuzz builds the header
			switch {
			case msg.Stream != nil:
				readers.Add(1)
				go func() {
					defer readers.Done()
					body, err := io.ReadAll(iotestHalfReader{msg.Stream})
					if err == nil {
						complete(env.Seq, body)
					}
				}()
			case msg.Err == nil && msg.Type == MsgSnapshot:
				complete(env.Seq, msg.Body)
			}
		}
	})
}

// iotestHalfReader reads at most half of what is asked, to tear reads.
type iotestHalfReader struct{ r io.Reader }

func (h iotestHalfReader) Read(p []byte) (int, error) { return h.r.Read(p[:max(len(p)/2, 1)]) }
