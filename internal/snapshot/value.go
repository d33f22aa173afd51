package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"websnap/internal/webapp"
)

// This file is the value codec: the text form of the seven-type
// webapp.Value universe (nil, bool, float64, string, []Value,
// map[string]Value, Float32Array) as it appears on a `var` line or as a
// __dispatch payload. The form is JSON, with a Float32Array written as the
// one-key object {"__f32__":[...]}; the encoder's output is byte for byte
// what encoding/json produces for the same tree (sorted keys, HTML-safe
// string escapes, json's float formatting), and the parser accepts exactly
// the JSON grammar — whitespace between tokens, duplicate keys (last one
// wins), escaped keys — so old and new peers interoperate.
//
// Numbers, literals, arrays, objects and plain-ASCII strings are read and
// written by hand; a string that needs escaping either way goes through
// encoding/json. Parsed values never alias the input.

// f32Key marks a Float32Array inside the JSON value encoding, standing in
// for JavaScript's `new Float32Array([...])`. It is reserved: captured app
// state must not use it as a map key.
const f32Key = "__f32__"

// maxDepth bounds array/object nesting in parsed values, matching
// encoding/json's own limit; deeper input is corrupt, not a stack overflow.
const maxDepth = 10000

// errNonFinite reports a NaN or ±Inf, which JSON text cannot carry.
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
		return appendFloat(dst, t, 64)
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

// appendFloat32s appends the JSON array of a typed array's elements.
func appendFloat32s(dst []byte, fa webapp.Float32Array) ([]byte, error) {
	var err error
	dst = append(dst, '[')
	for i, f := range fa {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendFloat(dst, float64(f), 32); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendFloat appends f (a float32 widened when bits is 32) the way
// encoding/json does: shortest digits that round-trip at that width, 'e'
// form below 1e-6 and from 1e21 up, and a two-digit negative exponent's
// leading zero dropped (e-09 → e-9).
func appendFloat(dst []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errNonFinite
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
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
// Float32Array when it has exactly that shape, any other object (and any
// marker written unusually — escaped or repeated key, extra keys) through
// the general path, which then applies the marker rule to the finished map.
func (p *parser) object() (webapp.Value, error) {
	start := p.pos
	if fa, ok := p.float32Array(); ok {
		return fa, nil
	}
	p.pos = start
	m, err := p.members()
	if err != nil {
		return nil, err
	}
	raw, marked := m[f32Key]
	if !marked || len(m) != 1 {
		return m, nil
	}
	arr, ok := raw.([]webapp.Value)
	if !ok {
		return nil, fmt.Errorf("%s marker is not an array", f32Key)
	}
	fa := make(webapp.Float32Array, len(arr))
	for i, e := range arr {
		f, ok := e.(float64)
		if !ok {
			return nil, fmt.Errorf("%s element %d is not a number", f32Key, i)
		}
		fa[i] = float32(f)
	}
	return fa, nil
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

// float32Array reads {"__f32__":[n,n,...]} at the cursor directly into a
// Float32Array of exactly the right size: each number is parsed at 64 bits
// and narrowed, as a JSON decoder followed by a float32 conversion would.
// ok is false — and the cursor meaningless — when the text is not exactly
// that shape; object then re-reads it the general way, which also produces
// the error for malformed input.
func (p *parser) float32Array() (fa webapp.Float32Array, ok bool) {
	if p.depth+2 > maxDepth {
		return nil, false
	}
	for _, tok := range []string{"{", `"` + f32Key + `"`, ":", "["} {
		p.skipSpace()
		if !bytes.HasPrefix(p.buf[p.pos:], []byte(tok)) {
			return nil, false
		}
		p.pos += len(tok)
	}
	// Find the closing bracket and count the elements in one walk that
	// gives up at the first byte a number array cannot hold, so text that
	// only starts like a typed array costs no more than its prefix.
	end, commas := p.pos, 0
walk:
	for ; ; end++ {
		if end == len(p.buf) {
			return nil, false
		}
		switch c := p.buf[end]; {
		case '0' <= c && c <= '9', c == '.', c == '-', c == 'e', c == 'E', c == '+',
			c == ' ', c == '\t', c == '\r', c == '\n':
		case c == ',':
			commas++
		case c == ']':
			break walk
		default:
			return nil, false
		}
	}
	p.skipSpace()
	if p.pos == end {
		fa = webapp.Float32Array{}
	} else {
		fa = make(webapp.Float32Array, 0, commas+1)
		for {
			p.skipSpace()
			if c := p.peek(); c != '-' && (c < '0' || c > '9') {
				return nil, false
			}
			f, err := p.number()
			if err != nil {
				return nil, false
			}
			fa = append(fa, float32(f))
			p.skipSpace()
			if p.pos == end {
				break
			}
			if p.peek() != ',' {
				return nil, false
			}
			p.pos++
		}
	}
	p.pos = end + 1
	p.skipSpace()
	if p.peek() != '}' {
		return nil, false
	}
	p.pos++
	return fa, true
}
