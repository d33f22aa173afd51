package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger returns the one log sink of every component and daemon: a
// log/slog JSON handler writing records at or above level to w, one object
// per line: ts (RFC 3339 nano, UTC), level in lower case, msg, then the bound
// attributes and then the call's. A nil w yields Discard. The handler writes
// each line in one call under its own mutex, so loggers derived with With
// keep one stream line-atomic across components.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	if w == nil {
		return Discard
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: lineShape}))
}

// lineShape renames slog's time key to ts in UTC and lower-cases the level.
func lineShape(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	case slog.LevelKey:
		return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
	}
	return a
}

// Discard drops every record before it is built; constructors default a nil
// logger to it, so components log unconditionally (guard a line whose
// attributes cost something with Enabled).
var Discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// TraceID builds the canonical trace-ID attribute, joining log lines to the
// span pipeline's traces.
func TraceID(id string) slog.Attr { return slog.String("traceId", id) }

// Err builds the canonical error attribute (nil-safe).
func Err(err error) slog.Attr {
	if err == nil {
		return slog.Any("err", nil)
	}
	return slog.String("err", err.Error())
}
