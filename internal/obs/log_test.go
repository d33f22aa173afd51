package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
	l.Info("server started", F("addr", ":9191"), F("workers", 4))
	l.Error("offload failed", TraceID("0123456789abcdef"), Err(errors.New("conn broken")))

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no first line")
	}
	var m map[string]any
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if m["ts"] != "2026-08-06T12:00:00Z" || m["level"] != "info" || m["msg"] != "server started" {
		t.Errorf("line 1 = %v", m)
	}
	if m["addr"] != ":9191" || m["workers"] != float64(4) {
		t.Errorf("line 1 fields = %v", m)
	}
	if !sc.Scan() {
		t.Fatal("no second line")
	}
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if m["level"] != "error" || m["traceId"] != "0123456789abcdef" || m["err"] != "conn broken" {
		t.Errorf("line 2 = %v", m)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("lines = %d, want 2 (warn+error): %s", got, buf.String())
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelInfo) {
		t.Error("Enabled thresholds wrong")
	}
}

func TestLoggerWithFields(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo).With(F("component", "edge"))
	l.Info("hello")
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["component"] != "edge" {
		t.Errorf("bound field missing: %v", m)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("ignored", F("k", "v"))
	if l.With(F("a", 1)) != nil {
		t.Error("nil With should stay nil")
	}
	if l.Enabled(LevelError) {
		t.Error("nil logger enabled")
	}
	if NewLogger(nil, LevelInfo) != nil {
		t.Error("nil writer should yield nil logger")
	}
}

func TestLoggerConcurrentLineAtomic(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := l.With(F("goroutine", i))
			for j := 0; j < 200; j++ {
				child.Info("tick", F("j", j))
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
	l := NewLogger(&buf, LevelInfo)
	l.Info("weird", F("ch", make(chan int))) // channels can't marshal
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("line should still be valid JSON: %v", err)
	}
	if _, ok := m["ch"].(string); !ok {
		t.Errorf("unencodable value should degrade to string: %v", m["ch"])
	}
}
