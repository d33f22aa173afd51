package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"unicode"

	"websnap/internal/webapp"
)

// header is the first line of every encoded snapshot.
const header = "// websnap-snapshot v1"

// The identity variables of snapshots and deltas; no global may use them.
const (
	varAppID    = "__appID"
	varCodeHash = "__codeHash"
	varBaseHash = "__baseHash"
)

// Encode renders the snapshot as its textual program form — "the snapshot
// app". One declaration per line:
//
//	// websnap-snapshot v1
//	var __appID = "...";
//	var __codeHash = "...";
//	__model("gnet", {...spec...}, "");
//	var feature = {"__f32__":"<base64 of the little-endian float32s>"};
//	__dom({...});
//	__bind({...});
//	__dispatch({"target":"btn","type":"front_complete"});
//
// Running the snapshot (Restore) rebuilds exactly this state and
// re-dispatches the pending events.
func (s *Snapshot) Encode() ([]byte, error) {
	dom, err := webapp.MarshalDOM(s.DOM)
	if err != nil {
		return nil, err
	}
	tail := appendCall(nil, "__dom", dom)
	for _, bind := range s.Bindings {
		if tail, err = appendJSONCall(tail, "__bind", bind); err != nil {
			return nil, fmt.Errorf("snapshot: encode binding: %w", err)
		}
	}
	if tail, err = appendPending(tail, s.Pending); err != nil {
		return nil, err
	}
	return assemble(header, []string{varAppID, s.AppID, varCodeHash, s.CodeHash}, s.Models, s.Globals, tail)
}

// assemble lays a snapshot or delta out in one buffer sized once: header,
// identity variables (name, value pairs), __model lines, globals, then tail —
// the struct-shaped statements (DOM, bindings, event envelopes: small, and
// encoding/json's), which the caller renders first. The typed arrays that
// dominate are sized exactly; only a string that needs escapes can make the
// buffer grow.
func assemble(header string, ids []string, models []ModelState, globals map[string]webapp.Value, tail []byte) ([]byte, error) {
	size := len(header) + 1 + globalsSizeHint(globals) + len(tail)
	for i := 0; i < len(ids); i += 2 {
		size += len(`var  = "";`+"\n") + len(ids[i]) + len(ids[i+1])
	}
	for _, ms := range models {
		size += len(modelTail+`__model("", `) + len(ms.Name) + len(ms.Spec)
	}
	b := append(make([]byte, 0, size), header+"\n"...)
	for i := 0; i < len(ids); i += 2 {
		b, _ = appendVar(b, ids[i], ids[i+1]) // strings always encode
	}
	for _, ms := range models {
		b = append(b, "__model("...)
		b = append(appendString(b, ms.Name), ", "...)
		b = append(append(b, ms.Spec...), modelTail...)
	}
	b, err := appendGlobals(b, globals)
	if err != nil {
		return nil, err
	}
	return append(b, tail...), nil
}

// globalsSizeHint sizes a set of `var` lines.
func globalsSizeHint(globals map[string]webapp.Value) int {
	n := 0
	for name, v := range globals {
		text, _ := textSize(v)
		n += len(`var  = ;`+"\n") + len(name) + text
	}
	return n
}

// textSize sizes the text of a captured value — exactly for typed arrays, as
// an upper bound for everything else but strings that need escapes — and
// reports how much of it is typed-array payload, the text between the quotes.
func textSize(v webapp.Value) (text, feature int) {
	switch t := v.(type) {
	case webapp.Float32Array:
		feature = f32TextLen(len(t))
		return len(`{"`+f32Key+`":""}`) + feature, feature
	case []webapp.Value:
		text = 2
		for _, e := range t {
			et, ef := textSize(e)
			text, feature = text+et+1, feature+ef
		}
	case map[string]webapp.Value:
		text = 2
		for k, e := range t {
			et, ef := textSize(e)
			text, feature = text+len(k)+4+et, feature+ef
		}
	case string:
		text = len(t) + 2
	case float64:
		text = 24 // -1.7976931348623157e+308
	default:
		text = 5 // false, null
	}
	return text, feature
}

// appendVar appends `var name = <value>;`.
func appendVar(dst []byte, name string, v webapp.Value) ([]byte, error) {
	dst = append(append(append(dst, "var "...), name...), " = "...)
	dst, err := appendValue(dst, v)
	return append(dst, ";\n"...), err
}

// appendGlobals appends one `var` line per global, in name order.
func appendGlobals(dst []byte, globals map[string]webapp.Value) ([]byte, error) {
	var err error
	for _, name := range sortedKeys(globals) {
		if dst, err = appendVar(dst, name, globals[name]); err != nil {
			return nil, fmt.Errorf("snapshot: encode global %q: %w", name, err)
		}
	}
	return dst, nil
}

// sortedKeys returns m's keys in the order both `var` lines and object
// members are written.
func sortedKeys(m map[string]webapp.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendCall appends `name(arg);`.
func appendCall(dst []byte, name string, arg []byte) []byte {
	dst = append(append(dst, name...), '(')
	return append(append(dst, arg...), ");\n"...)
}

// appendJSONCall appends `name(<v as encoding/json renders it>);`.
func appendJSONCall(dst []byte, name string, v any) ([]byte, error) {
	arg, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return appendCall(dst, name, arg), nil
}

// wireEvent is the __dispatch envelope; the payload inside it is value
// codec text.
type wireEvent struct {
	Target  string          `json:"target"`
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// appendPending appends one __dispatch line per pending event.
func appendPending(dst []byte, pending []webapp.Event) ([]byte, error) {
	for _, ev := range pending {
		we := wireEvent{Target: ev.Target, Type: ev.Type}
		if ev.Payload != nil {
			payload, err := appendValue(nil, ev.Payload)
			if err != nil {
				return nil, fmt.Errorf("snapshot: encode event payload: %w", err)
			}
			we.Payload = payload
		}
		var err error
		if dst, err = appendJSONCall(dst, "__dispatch", we); err != nil {
			return nil, fmt.Errorf("snapshot: encode event: %w", err)
		}
	}
	return dst, nil
}

// Decode parses a textual snapshot produced by Encode. The result shares
// no memory with data.
func Decode(data []byte) (*Snapshot, error) {
	s := &Snapshot{Globals: make(map[string]webapp.Value)}
	common := commonStatements{
		appID: &s.AppID, codeHash: &s.CodeHash,
		globals: s.Globals, dom: &s.DOM, pending: &s.Pending,
	}
	err := decodeStatements(data, header, func(line []byte) error {
		if done, err := common.decode(line); done {
			return err
		}
		if body, ok := callBody(line, "__model"); ok {
			return s.decodeModel(body)
		}
		if body, ok := callBody(line, "__bind"); ok {
			var b webapp.Binding
			if err := json.Unmarshal(body, &b); err != nil {
				return err
			}
			s.Bindings = append(s.Bindings, b)
			return nil
		}
		return fmt.Errorf("unrecognized statement %.40q", line)
	})
	if err != nil {
		return nil, err
	}
	if s.AppID == "" || s.CodeHash == "" {
		return nil, fmt.Errorf("%w: missing __appID or __codeHash", ErrCorrupt)
	}
	if s.DOM == nil {
		return nil, fmt.Errorf("%w: missing __dom", ErrCorrupt)
	}
	return s, nil
}

// decodeStatements checks the first line of data against header and hands
// every further non-empty line to stmt, as a subslice of data. Lines end
// at '\n'; a '\r' before it is dropped.
func decodeStatements(data []byte, header string, stmt func(line []byte) error) error {
	line, rest := cutLine(data)
	if string(line) != header {
		return fmt.Errorf("%w: missing header %q", ErrCorrupt, header)
	}
	for lineNo := 2; len(rest) > 0; lineNo++ {
		line, rest = cutLine(rest)
		if len(line) == 0 {
			continue
		}
		if err := stmt(line); err != nil {
			return fmt.Errorf("%w: line %d: %v", ErrCorrupt, lineNo, err)
		}
	}
	return nil
}

func cutLine(data []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(data, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), rest
}

// callBody extracts X from `name(X);`.
func callBody(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name)+3 || string(line[:len(name)]) != name ||
		line[len(name)] != '(' || string(line[len(line)-2:]) != ");" {
		return nil, false
	}
	return line[len(name)+1 : len(line)-2], true
}

// commonStatements decodes the statements snapshots and deltas share —
// `var` (identity and globals), __dom and __dispatch — into whichever of
// the two is being built.
type commonStatements struct {
	appID, codeHash, baseHash *string // baseHash is nil for a snapshot
	globals                   map[string]webapp.Value
	dom                       **webapp.Node
	pending                   *[]webapp.Event
}

// decode handles line if it is one of the common statements; done reports
// whether it was.
func (c commonStatements) decode(line []byte) (done bool, err error) {
	if rest, ok := bytes.CutPrefix(line, []byte("var ")); ok {
		return true, c.decodeVar(rest)
	}
	if body, ok := callBody(line, "__dom"); ok {
		*c.dom, err = webapp.UnmarshalDOM(body)
		return true, err
	}
	if body, ok := callBody(line, "__dispatch"); ok {
		var we wireEvent
		if err := json.Unmarshal(body, &we); err != nil {
			return true, err
		}
		ev := webapp.Event{Target: we.Target, Type: we.Type}
		if len(we.Payload) > 0 {
			if ev.Payload, err = parseValue(we.Payload); err != nil {
				return true, err
			}
		}
		*c.pending = append(*c.pending, ev)
		return true, nil
	}
	return false, nil
}

// decodeVar handles `name = <value>;` (the line after "var ").
func (c commonStatements) decodeVar(rest []byte) error {
	nameBytes, body, found := bytes.Cut(rest, []byte(" = "))
	body, terminated := bytes.CutSuffix(body, []byte(";"))
	if !found || !terminated {
		return fmt.Errorf("malformed var statement")
	}
	var identity *string
	switch string(nameBytes) {
	case varAppID:
		identity = c.appID
	case varCodeHash:
		identity = c.codeHash
	case varBaseHash:
		identity = c.baseHash
	}
	if identity != nil {
		// A string or null, as when json.Unmarshal filled a string.
		v, err := parseValue(body)
		id, isString := v.(string)
		if err != nil || !isString && v != nil {
			return fmt.Errorf("%s is not a string", nameBytes)
		}
		*identity = id
		return nil
	}
	name := string(nameBytes)
	if err := checkGlobalName(name); err != nil {
		return err
	}
	v, err := parseValue(body)
	if err != nil {
		return fmt.Errorf("global %q: %w", name, err)
	}
	c.globals[name] = v
	return nil
}

// modelTail closes a __model line. Its third argument is always the empty
// string: a model reaches the server as a pre-send, never inside a snapshot,
// and the literal stays so that the line reads as every peer expects.
const modelTail = `, "");` + "\n"

// decodeModel reads `"name", {spec}, ""` without reflection: the name is the
// leading string literal and the spec the object after it, kept as its
// bytes. It is not parsed here: restore compares them with the pre-sent
// model's, refusing a spec that is not its network's. A weights literal that
// is not empty is refused.
func (s *Snapshot) decodeModel(body []byte) error {
	p := parser{buf: body}
	if p.peek() != '"' {
		return errors.New("malformed __model arguments: no model name")
	}
	name, err := p.str()
	if err != nil {
		return fmt.Errorf("malformed __model name: %w", err)
	}
	rest, named := bytes.CutPrefix(body[p.pos:], []byte(", "))
	spec, closed := bytes.CutSuffix(rest, []byte(`, ""`))
	if !named || !closed {
		return errors.New("malformed __model arguments: the weights literal must be empty")
	}
	if len(spec) < 2 || spec[0] != '{' || spec[len(spec)-1] != '}' {
		return errors.New("malformed __model spec")
	}
	s.Models = append(s.Models, ModelState{Name: name, Spec: bytes.Clone(spec)})
	return nil
}

// checkGlobalName rejects names that would not survive a `var` line: the
// identity variables, and anything that is not an identifier (a name with
// " = " or a newline in it would split the line in the wrong place).
func checkGlobalName(name string) error {
	switch name {
	case varAppID, varCodeHash, varBaseHash:
		return fmt.Errorf("%w: global name %q", ErrReservedKey, name)
	case "":
		return fmt.Errorf("%w: empty global name", ErrReservedKey)
	}
	for i, r := range name {
		if r != '_' && r != '$' && !unicode.IsLetter(r) && !(i > 0 && unicode.IsDigit(r)) {
			return fmt.Errorf("%w: global name %q is not an identifier", ErrReservedKey, name)
		}
	}
	return nil
}

// checkGlobal rejects a global the text form cannot carry: a reserved or
// non-identifier name, or a value using the Float32Array marker key.
func checkGlobal(name string, v webapp.Value) error {
	if err := checkGlobalName(name); err != nil {
		return err
	}
	return checkReserved(v)
}

// checkReserved rejects values that would collide with the Float32Array
// marker encoding.
func checkReserved(v webapp.Value) error {
	switch t := v.(type) {
	case []webapp.Value:
		for _, e := range t {
			if err := checkReserved(e); err != nil {
				return err
			}
		}
	case map[string]webapp.Value:
		for k, e := range t {
			if k == f32Key {
				return fmt.Errorf("%w: %q", ErrReservedKey, f32Key)
			}
			if err := checkReserved(e); err != nil {
				return err
			}
		}
	}
	return nil
}
