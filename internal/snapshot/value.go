package snapshot

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"websnap/internal/protocol"
	"websnap/internal/webapp"
)

// This file is the value codec: the text form of the seven-type
// webapp.Value universe (nil, bool, float64, string, []Value,
// map[string]Value, Float32Array) as it appears on a `var` line or as a
// __dispatch payload. The form is JSON, with a Float32Array written as the
// one-key object {"__f32__":"<base64>"}: base64.StdEncoding of the array's
// little-endian IEEE-754 float32s, 16/3 bytes per element and bit-exact by
// construction. The encoder's output is byte for byte what encoding/json
// produces for the same tree (sorted keys, HTML-safe string escapes, json's
// float formatting, a []byte as StdEncoding base64), and the parser accepts
// exactly the JSON grammar — whitespace between tokens, duplicate keys (last
// one wins), escaped keys. A typed array has one form, read as it is
// written: the decimal array older encoders wrote, {"__f32__":[0.12,...]},
// is ErrCorrupt, as the base64 form is to a decoder from before it ("marker
// is not an array") — neither side misreads the other.
//
// Numbers, literals, arrays, objects and plain-ASCII strings are read and
// written by hand; a string that needs escaping either way goes through
// encoding/json. Parsed values never alias the input.

// f32Key marks a Float32Array inside the JSON value encoding, standing in
// for JavaScript's `new Float32Array(...)`. It is reserved: captured app
// state must not use it as a map key.
const f32Key = "__f32__"

// f32Open is what the encoder writes of a typed array ahead of its payload,
// the base64 text that `"}` then closes.
const f32Open = `{"` + f32Key + `":"`

// Float32TextBytesPerValue is what one typed-array element costs in a
// snapshot's text: four bytes of bits, base64-encoded. The cost models price
// feature data by it (partition.Config, sim.Scenario).
const Float32TextBytesPerValue = 16.0 / 3

// f32Chunk is how many elements are converted at a time between a typed
// array and its base64 text, through a stack buffer: a multiple of three,
// so every chunk but the last is 4·f32Chunk bytes of bits and exactly
// f32ChunkText characters with no padding in between.
const (
	f32Chunk     = 192
	f32ChunkText = 4 * f32Chunk / 3 * 4
)

// strictBase64 also refuses non-zero trailing bits in the last character.
var strictBase64 = base64.StdEncoding.Strict()

// f32TextLen is the exact length of an n-element typed array's payload, the
// text between the quotes.
func f32TextLen(n int) int { return base64.StdEncoding.EncodedLen(4 * n) }

// maxDepth bounds array/object nesting in parsed values, matching
// encoding/json's own limit; deeper input is corrupt, not a stack overflow.
const maxDepth = 10000

// errNonFinite reports a NaN or ±Inf, which JSON text cannot carry and a
// typed array's bits must not smuggle in.
var errNonFinite = errors.New("snapshot: NaN and ±Inf cannot be encoded")

// appendValue appends the text form of v to dst.
func appendValue(dst []byte, v webapp.Value) ([]byte, error) {
	var err error
	switch t := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, t), nil
	case float64:
		return appendFloat(dst, t)
	case string:
		return appendString(dst, t), nil
	case webapp.Float32Array:
		dst = append(dst, `{"`+f32Key+`":`...)
		if dst, err = appendFloat32s(dst, t); err != nil {
			return dst, err
		}
		return append(dst, '}'), nil
	case []webapp.Value:
		dst = append(dst, '[')
		for i, e := range t {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendValue(dst, e); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	case map[string]webapp.Value:
		dst = append(dst, '{')
		for i, k := range sortedKeys(t) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendString(dst, k), ':')
			if dst, err = appendValue(dst, t[k]); err != nil {
				return dst, err
			}
		}
		return append(dst, '}'), nil
	default:
		return dst, fmt.Errorf("unsupported value type %T", v)
	}
}

// appendFloat32s appends a typed array's payload string: the base64 of its
// elements' bits, converted a chunk at a time straight into dst.
func appendFloat32s(dst []byte, fa webapp.Float32Array) ([]byte, error) {
	dst = append(dst, '"')
	var bits [4 * f32Chunk]byte
	for len(fa) > 0 {
		n := min(len(fa), f32Chunk)
		protocol.PutFloat32s(bits[:], fa[:n])
		if !allFinite(bits[:4*n]) {
			return dst, errNonFinite
		}
		dst = base64.StdEncoding.AppendEncode(dst, bits[:4*n])
		fa = fa[n:]
	}
	return append(dst, '"'), nil
}

// allFinite reports whether no little-endian float32 in bits has an all-ones
// exponent, i.e. is NaN or ±Inf. Encoder and decoder share it, so a peer
// cannot express a value this side would refuse to write.
func allFinite(bits []byte) bool {
	for i := 3; i < len(bits); i += 4 {
		if bits[i]&0x7f == 0x7f && bits[i-1]&0x80 != 0 {
			return false
		}
	}
	return true
}

// decodeFloat32s reads a typed array's payload (the text between the quotes)
// into an array of exactly the size its length implies. Only the canonical
// encoding is accepted: the standard alphabet, padded, zero trailing bits, no
// line breaks, a whole number of finite float32s.
func decodeFloat32s(text []byte) (webapp.Float32Array, error) {
	size := base64RawLen(text)
	if len(text)%4 != 0 || size%4 != 0 {
		return nil, fmt.Errorf("%s payload of %d characters is not the padded base64 of whole float32s", f32Key, len(text))
	}
	fa := make(webapp.Float32Array, size/4)
	var bits [4 * f32Chunk]byte
	for rest := fa; len(rest) > 0; {
		n, tail, err := decodeChunk(&bits, text, 4*len(rest))
		if err != nil {
			return nil, fmt.Errorf("%s payload is not canonical base64: %v", f32Key, err)
		}
		if !allFinite(bits[:n]) {
			return nil, fmt.Errorf("%s payload: %w", f32Key, errNonFinite)
		}
		protocol.GetFloat32s(rest[:n/4], bits[:])
		rest, text = rest[n/4:], tail
	}
	return fa, nil
}

// base64RawLen is how many bytes padded base64 text of this length, ending in
// this much padding, stands for.
func base64RawLen(text []byte) int {
	return len(text)/4*3 - bytes.Count(text[max(len(text)-2, 0):], []byte("="))
}

// decodeChunk strictly decodes the next chunk — at most f32ChunkText
// characters — of a payload that has want bytes left to yield, into bits, and
// returns how many it yielded and the text after it. What the canonical
// encoding never contains shows as a chunk that comes up short: a line break,
// which the decoder skips, or padding before the end, where it stops.
func decodeChunk(bits *[4 * f32Chunk]byte, text []byte, want int) (n int, rest []byte, err error) {
	chunk := text[:min(len(text), f32ChunkText)]
	n = min(want, len(bits))
	got, err := strictBase64.Decode(bits[:], chunk)
	if err == nil && got != n {
		err = errors.New("line break or padding inside the payload")
	}
	return n, text[len(chunk):], err
}

// appendFloat appends f the way encoding/json does: shortest digits that
// round-trip, 'e' form below 1e-6 and from 1e21 up, and a two-digit negative
// exponent's leading zero dropped (e-09 → e-9).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errNonFinite
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json would not escape is copied as is; anything else (quotes,
// backslashes, <, >, &, control bytes, non-ASCII) is escaped by
// encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// parseValue parses one value's text form. body is not retained.
func parseValue(body []byte) (webapp.Value, error) {
	p := parser{buf: body}
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.buf) {
		return nil, p.unexpected("after value")
	}
	return v, nil
}

// parser is a recursive-descent JSON reader over one value body.
type parser struct {
	buf   []byte
	pos   int
	depth int
}

// peek returns the byte at the cursor, or 0 at the end of input (a literal
// NUL is no JSON token either, so callers need not tell the two apart).
func (p *parser) peek() byte {
	if p.pos < len(p.buf) {
		return p.buf[p.pos]
	}
	return 0
}

func (p *parser) skipSpace() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) unexpected(where string) error {
	if p.pos >= len(p.buf) {
		return fmt.Errorf("unexpected end of value %s", where)
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", p.buf[p.pos], where, p.pos)
}

// enter descends one nesting level; the caller decrements depth on return.
func (p *parser) enter() error {
	if p.depth++; p.depth > maxDepth {
		return fmt.Errorf("value nested deeper than %d", maxDepth)
	}
	return nil
}

func (p *parser) value() (webapp.Value, error) {
	p.skipSpace()
	switch c := p.peek(); {
	case c == '{':
		return p.object()
	case c == '[':
		return p.array()
	case c == '"':
		return p.str()
	case c == '-' || '0' <= c && c <= '9':
		return p.number()
	}
	rest := p.buf[p.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("null")):
		p.pos += 4
		return nil, nil
	case bytes.HasPrefix(rest, []byte("true")):
		p.pos += 4
		return true, nil
	case bytes.HasPrefix(rest, []byte("false")):
		p.pos += 5
		return false, nil
	}
	return nil, p.unexpected("looking for beginning of value")
}

// digits consumes a run of decimal digits and reports whether there was one.
func (p *parser) digits() bool {
	start := p.pos
	for c := p.peek(); '0' <= c && c <= '9'; c = p.peek() {
		p.pos++
	}
	return p.pos > start
}

// number reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — JSON's
// grammar, narrower than strconv's — and parses it at 64 bits; a magnitude
// beyond float64 is an error.
func (p *parser) number() (float64, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	if p.peek() == '0' {
		p.pos++
	} else if !p.digits() {
		return 0, p.unexpected("in numeric literal")
	}
	if p.peek() == '.' {
		p.pos++
		if !p.digits() {
			return 0, p.unexpected("after decimal point in numeric literal")
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if !p.digits() {
			return 0, p.unexpected("in exponent of numeric literal")
		}
	}
	// strconv copies the text into its errors, so the conversion stays on
	// the stack for any ordinary literal.
	return strconv.ParseFloat(string(p.buf[start:p.pos]), 64)
}

// str reads a string literal. Printable ASCII without escapes is copied
// out directly; everything else is decoded (and validated) by encoding/json.
func (p *parser) str() (string, error) {
	start, plain := p.pos, true
	for i := start + 1; i < len(p.buf); i++ {
		switch c := p.buf[i]; {
		case c == '"':
			p.pos = i + 1
			if plain {
				return string(p.buf[start+1 : i]), nil
			}
			var s string
			err := json.Unmarshal(p.buf[start:i+1], &s)
			return s, err
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the literal
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	p.pos = len(p.buf)
	return "", p.unexpected("in string literal")
}

func (p *parser) array() (webapp.Value, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	p.pos++ // '['
	p.skipSpace()
	if p.peek() == ']' {
		p.pos++
		return []webapp.Value{}, nil
	}
	out := make([]webapp.Value, 0, 4)
	for {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return out, nil
		default:
			return nil, p.unexpected("after array element")
		}
	}
}

// object reads an object: the typed-array marker straight into a
// Float32Array when it has exactly the shape the encoder writes, any other
// object (and any marker written unusually — an escaped or repeated key,
// escapes in the payload, extra keys) through the general path, which then
// applies the marker rule to the finished map. A typed array has one form:
// base64 text.
func (p *parser) object() (webapp.Value, error) {
	if text, ok := p.f32Text(); ok {
		return decodeFloat32s(text)
	}
	m, err := p.members()
	if err != nil {
		return nil, err
	}
	raw, marked := m[f32Key]
	if !marked || len(m) != 1 {
		return m, nil
	}
	if t, ok := raw.(string); ok {
		return decodeFloat32s([]byte(t))
	}
	return nil, fmt.Errorf("%s marker is not base64 text", f32Key)
}

// f32Text matches {"__f32__":"<payload>"} at the cursor, spelled as the
// encoder spells it: no whitespace, no escapes. It then returns the payload
// (a subslice of the input) with the cursor past the object; otherwise ok is
// false and the cursor has not moved.
func (p *parser) f32Text() (text []byte, ok bool) {
	rest, ok := bytes.CutPrefix(p.buf[p.pos:], []byte(f32Open))
	if !ok { // any other object costs no more than this prefix
		return nil, false
	}
	n := bytes.IndexByte(rest, '"')
	if p.depth >= maxDepth || n < 0 || !bytes.HasPrefix(rest[n+1:], []byte("}")) ||
		bytes.IndexByte(rest[:n], '\\') >= 0 {
		return nil, false
	}
	p.pos += len(f32Open) + n + 2
	return rest[:n], true
}

func (p *parser) members() (map[string]webapp.Value, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	p.pos++ // '{'
	m := make(map[string]webapp.Value)
	p.skipSpace()
	if p.peek() == '}' {
		p.pos++
		return m, nil
	}
	for {
		p.skipSpace()
		if p.peek() != '"' {
			return nil, p.unexpected("looking for beginning of object key string")
		}
		k, err := p.str()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ':' {
			return nil, p.unexpected("after object key")
		}
		p.pos++
		if m[k], err = p.value(); err != nil {
			return nil, err
		}
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return m, nil
		default:
			return nil, p.unexpected("after object key:value pair")
		}
	}
}
