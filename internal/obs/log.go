package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level is a log severity.
type Level int8

// Log levels, in increasing severity.
const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// Field is one structured key/value pair attached to a log line.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// TraceID builds the canonical trace-ID field, joining log lines to the
// span pipeline's traces.
func TraceID(id string) Field { return Field{Key: "traceId", Value: id} }

// Err builds the canonical error field (nil-safe).
func Err(err error) Field {
	if err == nil {
		return Field{Key: "err", Value: nil}
	}
	return Field{Key: "err", Value: err.Error()}
}

// Logger emits structured JSON-line leveled logs: one JSON object per
// line with ts, level, msg, and the attached fields. It is the one log sink
// of every component and daemon; a nil *Logger is silent, so components can
// log unconditionally (guard a line whose fields cost something with
// Enabled).
//
// Loggers derived with With share the parent's writer and mutex, so one
// file or stderr stream stays line-atomic across components.
type Logger struct {
	mu     *sync.Mutex
	w      io.Writer
	min    Level
	fields []Field
	// now is stubbed in tests for deterministic timestamps.
	now func() time.Time
}

// NewLogger creates a logger writing JSON lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{mu: &sync.Mutex{}, w: w, min: min, now: time.Now}
}

// With returns a logger that attaches fields to every line it emits.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	child := *l
	child.fields = append(append([]Field(nil), l.fields...), fields...)
	return &child
}

// Enabled reports whether the logger emits at the given level.
func (l *Logger) Enabled(level Level) bool { return l != nil && level >= l.min }

// Debug logs at debug level.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info logs at info level.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error logs at error level.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(level Level, msg string, fields []Field) {
	if !l.Enabled(level) {
		return
	}
	// Build the line as an ordered JSON object: ts, level, msg, then
	// fields in attachment order (bound fields first). Duplicate keys keep
	// the last occurrence wins semantics of most JSON readers; we emit all
	// occurrences rather than deduplicating on the hot path.
	var b []byte
	b = append(b, '{')
	b = appendJSONField(b, "ts", l.now().UTC().Format(time.RFC3339Nano))
	b = append(b, ',')
	b = appendJSONField(b, "level", level.String())
	b = append(b, ',')
	b = appendJSONField(b, "msg", msg)
	for _, f := range l.fields {
		b = append(b, ',')
		b = appendJSONField(b, f.Key, f.Value)
	}
	for _, f := range fields {
		b = append(b, ',')
		b = appendJSONField(b, f.Key, f.Value)
	}
	b = append(b, '}', '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(b) //nolint:errcheck // logging is best-effort
}

// appendJSONField appends `"key":value` with both sides JSON-encoded. An
// unencodable value degrades to its fmt representation instead of dropping
// the line.
func appendJSONField(b []byte, key string, value any) []byte {
	kb, _ := json.Marshal(key)
	b = append(b, kb...)
	b = append(b, ':')
	vb, err := json.Marshal(value)
	if err != nil {
		vb, _ = json.Marshal(fmt.Sprint(value))
	}
	return append(b, vb...)
}
