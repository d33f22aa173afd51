package protocol

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Body encodings carried in snapshot headers. A body travels as the literal
// snapshot text unless the sender has measured its link to be slow enough that
// a codec pass at both ends costs less than the bytes it saves
// (client.Offloader decides per request; DESIGN.md has the break-even).
const (
	// EncodingRaw is the literal text.
	EncodingRaw = ""
	// EncodingPacked is the text with its base64 payloads — typed arrays,
	// inline model weights — put back to the bytes they stand for
	// (snapshot.Pack) and the whole then DEFLATEd; SnapshotHeader.PlainLen
	// declares the text's length. The receiver inflates, re-encodes the
	// payloads and holds the sender's text byte for byte.
	EncodingPacked = "packed"
)

// EncodingName is the encoding as logs, audit events and metric labels spell
// it: the raw encoding's empty wire value reads "raw".
func EncodingName(encoding string) string {
	if encoding == EncodingRaw {
		return "raw"
	}
	return encoding
}

// HintPackedBody, in the Hints of a response, says the sender decodes
// EncodingPacked requests. A client sends raw bodies to a server it has not
// seen the bit from; a reply mirrors the encoding of the request it answers,
// which is the client's proof that it decodes it.
const HintPackedBody = 4

const (
	// packGain is what packing must save for a body to travel packed: a
	// tenth. Less is not worth the receiver's decode.
	packGain = 10
	// packSlack is how far a packed form may exceed its text: the length
	// prefix of its first literal (snapshot.Pack keeps every run a saving).
	packSlack = 16
	// maxPooledPacked is the largest inflated intermediate the pool keeps
	// (GoogLeNet's request inflates to 0.6 MB): one outsized body must not
	// pin its buffer.
	maxPooledPacked = 8 << 20
)

// errNoGain stops a compression whose output has reached what the body may
// cost packed.
var errNoGain = errors.New("protocol: body does not shrink")

// cappedWriter appends to buf within its capacity and refuses what would not
// fit.
type cappedWriter struct{ buf []byte }

func (w *cappedWriter) Write(p []byte) (int, error) {
	if len(p) > cap(w.buf)-len(w.buf) {
		return 0, errNoGain
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// A flate.Writer is several hundred KB of tables and a flate reader tens, so
// both are kept and Reset rather than made per body.
type deflater struct {
	fw  *flate.Writer
	out cappedWriter
}

var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.BestSpeed) // the level is valid
	return &deflater{fw: fw}
}}

type inflater struct {
	src    bytes.Reader
	fr     io.ReadCloser // a flate reader
	limit  io.LimitedReader
	packed bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	return &inflater{fr: flate.NewReader(nil)}
}}

// CompressBody renders plain under EncodingPacked into dst's storage (grown
// when it is too small), streaming pack's output — snapshot.Pack — through
// DEFLATE at BestSpeed. ok is false, and the body should travel raw, when that
// does not save a tenth of plain. Either way the returned slice is the storage
// to hand back next time.
func CompressBody(dst, plain []byte, pack func(w io.Writer, plain []byte) error) (body []byte, ok bool, err error) {
	limit := len(plain) - len(plain)/packGain
	if cap(dst) < limit {
		dst = make([]byte, 0, limit)
	}
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.out.buf = dst[:0:limit]
	d.fw.Reset(&d.out)
	if err = pack(d.fw, plain); err == nil {
		err = d.fw.Close()
	}
	body, d.out.buf = d.out.buf, nil
	switch {
	case errors.Is(err, errNoGain):
		return dst[:0], false, nil
	case err != nil:
		return dst[:0], false, fmt.Errorf("protocol: compress: %w", err)
	}
	return body, true, nil
}

// DecodeBody returns the plain body for the given encoding. A packed body
// declares its text's length, plainLen: one above MaxBodyLen is refused before
// anything is inflated, inflation stops at it, the text is allocated once at
// exactly that size — and only when the inflated form can amount to it — and
// filled by unpack (snapshot.Unpack), which fails on any mismatch.
func DecodeBody(body []byte, encoding string, plainLen int64, unpack func(dst, packed []byte) error) ([]byte, error) {
	switch encoding {
	case EncodingRaw:
		return body, nil
	case EncodingPacked:
	default:
		return nil, fmt.Errorf("protocol: unknown body encoding %q", encoding)
	}
	if plainLen <= 0 || plainLen > MaxBodyLen {
		return nil, fmt.Errorf("%w: packed body declares %d bytes of text", ErrTooLarge, plainLen)
	}
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // the pool must not keep the body alive
		if in.packed.Cap() > maxPooledPacked {
			in.packed = bytes.Buffer{}
		}
		inflaters.Put(in)
	}()
	in.src.Reset(body)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, fmt.Errorf("protocol: decompress: %w", err)
	}
	in.limit = io.LimitedReader{R: in.fr, N: plainLen + packSlack + 1}
	in.packed.Reset()
	if _, err := in.packed.ReadFrom(&in.limit); err != nil {
		return nil, fmt.Errorf("protocol: decompress: %w", err)
	}
	// Unpacking grows a byte to at most 4/3 characters.
	if n := int64(in.packed.Len()); n > plainLen+packSlack || plainLen > n/3*4+4 {
		return nil, fmt.Errorf("protocol: decompress: %d bytes inflated cannot be the %d bytes of text declared", n, plainLen)
	}
	plain := make([]byte, plainLen)
	if err := unpack(plain, in.packed.Bytes()); err != nil {
		return nil, fmt.Errorf("protocol: decompress: %w", err)
	}
	return plain, nil
}
