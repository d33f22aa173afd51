package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	h := NewLogger(&buf, slog.LevelDebug).Handler()
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	r := slog.NewRecord(at, slog.LevelInfo, "server started", 0)
	r.AddAttrs(slog.Any("addr", ":9191"), slog.Any("workers", 4))
	if err := h.Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	r = slog.NewRecord(at, slog.LevelError, "offload failed", 0)
	r.AddAttrs(TraceID("0123456789abcdef"), Err(errors.New("conn broken")))
	if err := h.Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no first line")
	}
	const want = `{"ts":"2026-08-06T12:00:00Z","level":"info","msg":"server started","addr":":9191","workers":4}`
	if got := sc.Text(); got != want {
		t.Errorf("line 1 = %s\nwant     %s", got, want)
	}
	if !sc.Scan() {
		t.Fatal("no second line")
	}
	var m map[string]any
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if m["level"] != "error" || m["traceId"] != "0123456789abcdef" || m["err"] != "conn broken" {
		t.Errorf("line 2 = %v", m)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("lines = %d, want 2 (warn+error): %s", got, buf.String())
	}
	ctx := context.Background()
	if !l.Enabled(ctx, slog.LevelError) || l.Enabled(ctx, slog.LevelInfo) {
		t.Error("Enabled thresholds wrong")
	}
}

func TestLoggerWithFields(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo).With(slog.Any("component", "edge"))
	l.Info("hello", slog.Any("k", "v"))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["component"] != "edge" {
		t.Errorf("bound field missing: %v", m)
	}
	if i, j := strings.Index(buf.String(), `"component"`), strings.Index(buf.String(), `"k"`); i > j {
		t.Errorf("bound field after call field: %s", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	l := NewLogger(nil, slog.LevelInfo)
	if l != Discard {
		t.Error("nil writer should yield Discard")
	}
	l.Info("ignored", slog.Any("k", "v"))
	if l.With(slog.Any("a", 1)).Enabled(context.Background(), slog.LevelError) {
		t.Error("Discard enabled")
	}
}

func TestLoggerConcurrentLineAtomic(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := l.With(slog.Any("goroutine", i))
			for j := 0; j < 200; j++ {
				child.Info("tick", slog.Any("j", j))
			}
		}(i)
	}
	wg.Wait()
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d torn or not JSON: %v", lines, err)
		}
	}
	if lines != 1600 {
		t.Errorf("lines = %d, want 1600", lines)
	}
}

func TestLoggerUnencodableValue(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	l.Info("weird", slog.Any("ch", make(chan int))) // channels can't marshal
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("line should still be valid JSON: %v", err)
	}
	if _, ok := m["ch"].(string); !ok {
		t.Errorf("unencodable value should degrade to string: %v", m["ch"])
	}
}
