package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"websnap/internal/testutil"
)

func TestRoundTripAllTypes(t *testing.T) {
	tests := []struct {
		name   string
		msg    Message
		header any
	}{
		{"presend", mustEncode(t, MsgModelPreSend,
			ModelPreSendHeader{AppID: "a", ModelName: "m", Spec: json.RawMessage(`{"name":"m"}`)},
			[]byte{1, 2, 3}), nil},
		{"ack", mustEncode(t, MsgAck, AckHeader{AppID: "a", ModelName: "m"}, nil), nil},
		{"snapshot", mustEncode(t, MsgSnapshot, SnapshotHeader{AppID: "a", Seq: 7}, []byte("// snap")), nil},
		{"result", mustEncode(t, MsgResultSnapshot, SnapshotHeader{AppID: "a", Seq: 7}, []byte("// snap")), nil},
		{"error", mustEncode(t, MsgError, ErrorHeader{Message: "boom"}, nil), nil},
		{"overlay", mustEncode(t, MsgInstallOverlay, InstallOverlayHeader{BaseImage: "ubuntu"}, []byte{9}), nil},
		{"done", mustEncode(t, MsgInstallDone, InstallDoneHeader{SynthesisMillis: 1900}, nil), nil},
		{"fleet-register", mustEncode(t, MsgFleetRegister,
			FleetRegisterHeader{Addr: "10.0.0.1:9000", Capacity: 4, TTLMillis: 3000,
				Load: &LoadHint{Workers: 4, Busy: 2}, Blobs: []string{"abc123", "def456"}},
			nil), nil},
		{"fleet-registered", mustEncode(t, MsgFleetRegistered, FleetRegisteredHeader{Servers: 3, Version: 17}, nil), nil},
		{"fleet-list", mustEncode(t, MsgFleetList, FleetListHeader{}, nil), nil},
		{"fleet-view", mustEncode(t, MsgFleetView,
			FleetViewHeader{Version: 17, Servers: []FleetServer{{Addr: "10.0.0.1:9000", Capacity: 4, AgeMillis: 120}}},
			nil), nil},
		{"blob-locate", mustEncode(t, MsgBlobLocate, BlobLocateHeader{Keys: []string{"abc123"}}, nil), nil},
		{"blob-location", mustEncode(t, MsgBlobLocation,
			BlobLocationHeader{Holders: map[string][]string{"abc123": {"10.0.0.1:9000"}}}, nil), nil},
		{"blob-get", mustEncode(t, MsgBlobGet, BlobGetHeader{Key: "abc123"}, nil), nil},
		{"blob-data", mustEncode(t, MsgBlobData, BlobDataHeader{Key: "abc123", BodyCRC: 7}, []byte{4, 5, 6}), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, tt.msg); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got.Type != tt.msg.Type {
				t.Errorf("type %s != %s", got.Type, tt.msg.Type)
			}
			if !bytes.Equal(got.Header, tt.msg.Header) {
				t.Error("header corrupted")
			}
			if !bytes.Equal(got.Body, tt.msg.Body) {
				t.Error("body corrupted")
			}
		})
	}
}

func mustEncode(t *testing.T, typ MsgType, header any, body []byte) Message {
	t.Helper()
	msg, err := Encode(typ, header, body)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		msg := mustEncode(t, MsgAck, AckHeader{ModelName: "m"}, nil)
		if err := Write(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := Read(&buf); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if _, err := Read(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("after stream end: %v, want EOF", err)
	}
}

func TestReadBadMagic(t *testing.T) {
	data := make([]byte, 18)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadBadVersion(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgAck, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestReadUnknownType(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgAck, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[5] = 200
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrUnknownType) {
		t.Errorf("err = %v, want ErrUnknownType", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	msg := mustEncode(t, MsgSnapshot, SnapshotHeader{AppID: "a"}, make([]byte, 100))
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 17, 20, buf.Len() - 1} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncated at %d decoded without error", cut)
		}
	}
}

func TestReadOversizedDeclared(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgAck, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the declared body length to something enormous.
	for i := 10; i < 18; i++ {
		data[i] = 0xFF
	}
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestWriteTooLarge(t *testing.T) {
	msg := Message{Type: MsgAck, Header: make([]byte, MaxHeaderLen+1)}
	if err := Write(io.Discard, msg); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeHeader(t *testing.T) {
	msg := mustEncode(t, MsgAck, AckHeader{AppID: "a", ModelName: "m"}, nil)
	var hdr AckHeader
	if err := DecodeHeader(msg, &hdr); err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	if hdr.AppID != "a" || hdr.ModelName != "m" {
		t.Errorf("header = %+v", hdr)
	}
	msg.Header = []byte("not json")
	if err := DecodeHeader(msg, &hdr); err == nil {
		t.Error("bad JSON header should fail")
	}
}

// TestSnapshotHeaderReplyField pins the one key the result-delta reply added
// to the wire. A request that asks for no delta — the raw OffloadSnapshot
// API, and every response — frames to the bytes it did before the field
// existed; asking adds "reply" and nothing else. The base a result delta
// names for a full request is a function of that header and its body.
func TestSnapshotHeaderReplyField(t *testing.T) {
	body := []byte("// snapshot")
	hdr := SnapshotHeader{AppID: "a", Seq: 7, Encoding: "flate", TraceID: "00c0ffee00c0ffee", BodyCRC: 42}
	rows := []struct {
		reply, want string
	}{
		{"", `{"appId":"a","seq":7,"encoding":"flate","traceId":"00c0ffee00c0ffee","bodyCrc":42}`},
		{ReplyDelta, `{"appId":"a","seq":7,"encoding":"flate","traceId":"00c0ffee00c0ffee","reply":"delta","bodyCrc":42}`},
		// What a PR 19/20 client's synced session wrote; read as ReplyDelta.
		{"delta+sync", `{"appId":"a","seq":7,"encoding":"flate","traceId":"00c0ffee00c0ffee","reply":"delta+sync","bodyCrc":42}`},
	}
	for _, row := range rows {
		hdr.Reply = row.reply
		msg := mustEncode(t, MsgSnapshot, hdr, body)
		if string(msg.Header) != row.want {
			t.Errorf("reply %q: header %s, want %s", row.reply, msg.Header, row.want)
		}
		var back SnapshotHeader
		if err := DecodeHeader(msg, &back); err != nil || back.Reply != row.reply {
			t.Errorf("reply %q decoded as %q (err %v)", row.reply, back.Reply, err)
		}
		if got, want := back.RequestBase(msg.Body), "req:7:0000002a:11"; got != want {
			t.Errorf("reply %q: request base %q, want %q", row.reply, got, want)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgSnapshot.String() != "snapshot" {
		t.Errorf("MsgSnapshot = %q", MsgSnapshot)
	}
	if MsgType(99).String() != "unknown(99)" {
		t.Errorf("unknown = %q", MsgType(99))
	}
	// Type 8 (the retired request delta) stays reserved: its neighbours keep
	// their numbers and it names nothing.
	if MsgInstallDone != 7 || MsgResultDelta != 9 || MsgType(8).String() != "unknown(8)" {
		t.Errorf("types around the retired 8: install-done=%d result-delta=%d, 8=%q",
			MsgInstallDone, MsgResultDelta, MsgType(8))
	}
	for typ, want := range map[MsgType]string{
		MsgFleetRegister:   "fleet-register",
		MsgFleetRegistered: "fleet-registered",
		MsgFleetList:       "fleet-list",
		MsgFleetView:       "fleet-view",
		MsgBlobLocate:      "blob-locate",
		MsgBlobLocation:    "blob-location",
		MsgBlobGet:         "blob-get",
		MsgBlobData:        "blob-data",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ, want)
		}
	}
}

// TestEmptyBodyOverPipe is a regression test: messages with empty bodies
// (ACKs, errors) must not deadlock on rendezvous transports like net.Pipe,
// where a zero-byte Write blocks for a Read that io.ReadFull(0) never
// issues.
func TestEmptyBodyOverPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	msg := mustEncode(t, MsgAck, AckHeader{AppID: "x", ModelName: "m"}, nil)
	errCh := make(chan error, 1)
	go func() { errCh <- Write(a, msg) }()
	got, err := Read(b)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Type != MsgAck || len(got.Body) != 0 {
		t.Errorf("got %+v", got)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write deadlocked on empty body")
	}
}

// copyPack and copyUnpack stand in for snapshot.Pack and snapshot.Unpack (which
// this package cannot import): the text is its own packed form.
func copyPack(w io.Writer, plain []byte) error {
	_, err := w.Write(plain)
	return err
}

func copyUnpack(dst, packed []byte) error {
	if len(dst) != len(packed) {
		return fmt.Errorf("packed form is %d bytes, text %d", len(packed), len(dst))
	}
	copy(dst, packed)
	return nil
}

func TestCompressDecodeBody(t *testing.T) {
	text := []byte(strings.Repeat("var feature = [0.1,0.2,0.3];\n", 500))
	compressed, ok, err := CompressBody(nil, text, copyPack)
	if err != nil || !ok {
		t.Fatalf("CompressBody: ok %v, err %v", ok, err)
	}
	if len(compressed) >= len(text)/2 {
		t.Errorf("snapshot-like text should compress well: %d vs %d", len(compressed), len(text))
	}
	plain, err := DecodeBody(compressed, EncodingPacked, int64(len(text)), copyUnpack)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, text) {
		t.Error("compression round trip corrupted the body")
	}
	raw, err := DecodeBody(text, EncodingRaw, 0, copyUnpack)
	if err != nil || !bytes.Equal(raw, text) {
		t.Errorf("raw DecodeBody should pass through: %v", err)
	}
	for name, c := range map[string]struct {
		body     []byte
		encoding string
		plainLen int64
	}{
		"unknown encoding":     {text, "lzma", 0},
		"the retired encoding": {compressed, "flate", int64(len(text))},
		"not DEFLATE":          {[]byte("garbage not flate"), EncodingPacked, 17},
		"no declared length":   {compressed, EncodingPacked, 0},
		"declared one short":   {compressed, EncodingPacked, int64(len(text)) - 1},
		"declared one long":    {compressed, EncodingPacked, int64(len(text)) + 1},
		"truncated stream":     {compressed[:len(compressed)/2], EncodingPacked, int64(len(text))},
	} {
		if _, err := DecodeBody(c.body, c.encoding, c.plainLen, copyUnpack); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestCompressBodyGoesRawWithoutGain: a body that DEFLATE cannot take a tenth
// off is reported as not worth sending packed, and the caller's storage comes
// back for the next body either way.
func TestCompressBodyGoesRawWithoutGain(t *testing.T) {
	noise := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(noise)
	storage := make([]byte, 0, len(noise))
	body, ok, err := CompressBody(storage, noise, copyPack)
	if err != nil || ok {
		t.Fatalf("incompressible body: ok %v, err %v", ok, err)
	}
	if len(body) != 0 || cap(body) != cap(storage) {
		t.Errorf("storage came back as len %d cap %d, want 0 and %d", len(body), cap(body), cap(storage))
	}
	text := bytes.Repeat([]byte("var x = 1;\n"), 4096)
	body, ok, err = CompressBody(body, text, copyPack)
	if err != nil || !ok {
		t.Fatalf("text after noise: ok %v, err %v", ok, err)
	}
	if &body[:1][0] != &storage[:1][0] {
		t.Error("a body that fits was not built in the storage handed in")
	}
	if plain, err := DecodeBody(body, EncodingPacked, int64(len(text)), copyUnpack); err != nil || !bytes.Equal(plain, text) {
		t.Errorf("round trip after a refused body: %v", err)
	}
}

// TestDecodeBodyBoundedByDeclaredLength is the amplification gate: what a
// packed body may inflate to is what its header declares, checked against
// MaxBodyLen before a byte is inflated, and a stream that holds more than it
// declared — or far less — is refused without the text being allocated.
func TestDecodeBodyBoundedByDeclaredLength(t *testing.T) {
	bomb := make([]byte, 8<<20) // 8 MiB of zeros deflate to ~8 KiB
	body, ok, err := CompressBody(nil, bomb, copyPack)
	if err != nil || !ok {
		t.Fatalf("CompressBody: ok %v, err %v", ok, err)
	}
	unpacked := 0
	counting := func(dst, packed []byte) error {
		unpacked++
		return copyUnpack(dst, packed)
	}
	if _, err := DecodeBody(body, EncodingPacked, MaxBodyLen+1, counting); !errors.Is(err, ErrTooLarge) {
		t.Errorf("declared length above MaxBodyLen: err = %v, want ErrTooLarge", err)
	}
	// Inflation stops at the declared length, so refusing costs a buffer
	// grown by doubling to the smaller of declaration and stream — never the
	// text, and never anything the size of a wrong declaration.
	for _, c := range []struct{ declared, mayAllocate int64 }{
		{1 << 10, 64 << 10},
		{int64(len(bomb)) - 1<<10, 8 * int64(len(bomb))},
		{MaxBodyLen, 8 * int64(len(bomb))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBody(body, EncodingPacked, c.declared, counting)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("an %d-byte stream decoded as %d bytes", len(bomb), c.declared)
		}
		if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > c.mayAllocate && !testutil.RaceDetector {
			t.Errorf("declared %d: refusing allocated %d bytes, want ≤ %d", c.declared, grew, c.mayAllocate)
		}
	}
	if unpacked != 0 {
		t.Errorf("unpack ran %d times on bodies whose length cannot match", unpacked)
	}
}

// Property: any header/body payload round-trips bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(body []byte, app, model string) bool {
		msg, err := Encode(MsgModelPreSend, ModelPreSendHeader{
			AppID: app, ModelName: model, Spec: json.RawMessage(`{}`),
		}, body)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Type == msg.Type && bytes.Equal(got.Header, msg.Header) && bytes.Equal(got.Body, msg.Body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBodyChecksumVerify(t *testing.T) {
	body := []byte("var feature = [0.1,0.2];")
	sum := BodyChecksum(body)
	if sum == 0 {
		t.Fatal("checksum of non-empty body should be non-zero")
	}
	if err := VerifyBody(body, sum); err != nil {
		t.Errorf("matching checksum rejected: %v", err)
	}
	// Zero sum means "unchecked": always passes.
	if err := VerifyBody(body, 0); err != nil {
		t.Errorf("zero checksum must be skipped: %v", err)
	}
	corrupted := append([]byte(nil), body...)
	corrupted[5] ^= 0x40
	err := VerifyBody(corrupted, sum)
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

// TestReadHugeClaimedBodyBoundedAlloc is a regression test: a frame header
// whose corrupted length prefix claims a body near MaxBodyLen (1 GiB) but
// whose stream ends after a few bytes must fail with a truncation error
// WITHOUT allocating the claimed size up front.
func TestReadHugeClaimedBodyBoundedAlloc(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgSnapshot, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[10:18], MaxBodyLen) // claim 1 GiB
	data = append(data, []byte("only a few bytes arrive")...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated huge-claim frame decoded without error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want unexpected-EOF truncation", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("Read allocated %d bytes for a body that never arrived; want bounded growth", grew)
	}
}

// TestReadLargeBodyStillRoundTrips pins that the chunked body reader
// reassembles multi-chunk bodies bit-exactly.
func TestReadLargeBodyStillRoundTrips(t *testing.T) {
	body := make([]byte, 3<<20+12345)
	for i := range body {
		body[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Message{Type: MsgSnapshot, Header: []byte("{}"), Body: body}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, body) {
		t.Error("multi-chunk body corrupted in reassembly")
	}
}

// TestCall pins the one-shot exchange every server-to-server hop uses: the
// decoded answer on success, the peer's own error header on MsgError, an
// error on any other frame type, and the timeout bounding the whole
// exchange.
func TestCall(t *testing.T) {
	ping, err := Encode(MsgPing, PingHeader{Seq: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// serve answers one request on the far end of a pipe with reply
	// (nothing when reply is nil) and returns the near end.
	serve := func(reply func(req Message) Message) net.Conn {
		near, far := net.Pipe()
		t.Cleanup(func() { near.Close(); far.Close() })
		go func() {
			req, err := Read(far)
			if err != nil || reply == nil {
				return
			}
			Write(far, reply(req)) //nolint:errcheck // the test fails on the near end
		}()
		return near
	}
	encode := func(typ MsgType, hdr any, body []byte) func(Message) Message {
		return func(Message) Message {
			msg, err := Encode(typ, hdr, body)
			if err != nil {
				t.Error(err)
			}
			return msg
		}
	}

	var pong PongHeader
	resp, err := Call(serve(encode(MsgPong, PongHeader{Installed: true, Seq: 7}, []byte("body"))),
		time.Second, ping, MsgPong, &pong)
	if err != nil || !pong.Installed || pong.Seq != 7 || string(resp.Body) != "body" {
		t.Errorf("Call = %+v, body %q, err %v; want the decoded pong and its body", pong, resp.Body, err)
	}

	_, err = Call(serve(encode(MsgError, ErrorHeader{Message: "no such blob", ChainHop: 3}, nil)),
		time.Second, ping, MsgPong, &pong)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Message != "no such blob" || remote.ChainHop != 3 || err.Error() != "no such blob" {
		t.Errorf("MsgError answer: err = %v, want a RemoteError carrying the peer's header", err)
	}

	if _, err = Call(serve(encode(MsgAck, AckHeader{}, nil)), time.Second, ping, MsgPong, &pong); err == nil ||
		errors.As(err, &remote) || !strings.Contains(err.Error(), "unexpected reply") {
		t.Errorf("wrong frame type: err = %v, want an unexpected-reply error", err)
	}

	start := time.Now()
	_, err = Call(serve(nil), 50*time.Millisecond, ping, MsgPong, &pong)
	var netErr net.Error
	if !errors.As(err, &netErr) || !netErr.Timeout() || time.Since(start) > 5*time.Second {
		t.Errorf("silent peer: err = %v after %v, want the deadline to end the exchange", err, time.Since(start))
	}
}

// countingReader counts the Read calls that reach the transport.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestSmallFrameIsOneRead: through a connection's reader, a frame of up to
// 32 KB — prefix, header and body — costs one Read of the transport, not
// one per part.
func TestSmallFrameIsOneRead(t *testing.T) {
	for _, bodyLen := range []int{0, 5 << 10, 32<<10 - 256} {
		msg := mustEncode(t, MsgSnapshot, SnapshotHeader{AppID: "app", Seq: 9, TraceID: "0123456789abcdef"}, bytes.Repeat([]byte{'x'}, bodyLen))
		var wire bytes.Buffer
		if err := Write(&wire, msg); err != nil {
			t.Fatal(err)
		}
		src := &countingReader{r: &wire}
		got, err := Read(NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Header, msg.Header) || !bytes.Equal(got.Body, msg.Body) {
			t.Fatalf("%d-byte body: frame did not round-trip", bodyLen)
		}
		if src.reads != 1 {
			t.Errorf("%d-byte body: %d reads of the transport, want 1", bodyLen, src.reads)
		}
	}
}

// TestFrameRoundTripAllocations: writing a 5 KB frame and reading it back
// through a connection's reader allocates the received header and body and
// nothing else — the write vector is pooled and the reader's buffer is the
// connection's.
func TestFrameRoundTripAllocations(t *testing.T) {
	if testutil.RaceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	msg := mustEncode(t, MsgSnapshot, SnapshotHeader{AppID: "app", Seq: 9}, bytes.Repeat([]byte{'x'}, 5<<10))
	var wire bytes.Buffer
	wire.Grow(8 << 10)
	br := NewReader(&wire)
	allocs := testing.AllocsPerRun(50, func() {
		if err := Write(&wire, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(br); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("5 KB frame Write + Read: %.0f allocations, want 2 (header and body)", allocs)
	}
}
