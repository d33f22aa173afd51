package main

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/core"
	"websnap/internal/netem"
)

func TestParseMode(t *testing.T) {
	tests := []struct {
		in      string
		want    core.Mode
		wantErr bool
	}{
		{"local", core.ModeLocal, false},
		{"full", core.ModeFull, false},
		{"partial", core.ModePartial, false},
		{"auto", core.ModeAuto, false},
		{"warp", 0, true},
	}
	for _, tt := range tests {
		got, err := parseMode(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseMode(%q) err = %v", tt.in, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("parseMode(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBuildModel(t *testing.T) {
	m, labels, err := buildModel("tinynet")
	if err != nil {
		t.Fatalf("tinynet: %v", err)
	}
	if m.Name() != "tinynet" || len(labels) != 3 {
		t.Errorf("tinynet = %q with %d labels", m.Name(), len(labels))
	}
	m, labels, err = buildModel("gendernet")
	if err != nil {
		t.Fatalf("gendernet: %v", err)
	}
	if len(labels) != 2 {
		t.Errorf("gendernet labels = %d, want 2", len(labels))
	}
	if _, _, err := buildModel("nope"); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestRunLocalMode(t *testing.T) {
	// Local mode needs no server; one run end to end.
	if err := run("", "tinynet", "local", "", 0, false, "", 1, "", "", ""); err != nil {
		t.Fatalf("local run: %v", err)
	}
}

// TestBandwidthShapesThePlannedLink: -bandwidth both shapes the socket and
// is the link the session's partition decision is solved for; without it the
// session keeps the zero profile, which selects the default link.
func TestBandwidthShapesThePlannedLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, c := range []struct {
		mbps float64
		want netem.Profile
	}{
		{0, netem.Profile{}},
		{5, netem.Profile{BandwidthBitsPerSec: 5e6, Latency: 2 * time.Millisecond}},
	} {
		var cfg core.SessionConfig
		if err := connect(&cfg, ln.Addr().String(), c.mbps); err != nil {
			t.Fatal(err)
		}
		cfg.Conn.Close()
		if cfg.Network != c.want {
			t.Errorf("-bandwidth %v: session Network = %+v, want %+v", c.mbps, cfg.Network, c.want)
		}
	}
}

// hangUpServer listens on loopback and closes every connection it accepts;
// it returns its address and the number of connections accepted so far.
func hangUpServer(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()
	return ln.Addr().String(), &accepted
}

// TestRunFallsBackWhenServerHangsUp: an edge server that hangs up on every
// connection costs each run its offload, not its result — every run ends
// on the device and the CLI exits cleanly.
func TestRunFallsBackWhenServerHangsUp(t *testing.T) {
	addr, _ := hangUpServer(t)
	if err := run(addr, "tinynet", "full", "", 0, false, "", 2, "", "", ""); err != nil {
		t.Fatalf("run against a server that hangs up: %v", err)
	}
}

// TestRunSurvivesFailedPreSend: a model upload the server hangs up on is
// reported, not fatal — the runs still happen, each falling back locally.
func TestRunSurvivesFailedPreSend(t *testing.T) {
	addr, _ := hangUpServer(t)
	if err := run(addr, "tinynet", "full", "", 0, true, "", 2, "", "", ""); err != nil {
		t.Fatalf("run with a failed pre-send: %v", err)
	}
}

// TestRunRedialsBrokenConn: the CLI's connection can redial, so a run after
// a broken one tries the server again on a fresh connection instead of
// falling back on a dead one.
func TestRunRedialsBrokenConn(t *testing.T) {
	addr, accepted := hangUpServer(t)
	if err := run(addr, "tinynet", "full", "", 0, false, "", 2, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if n := accepted.Load(); n < 2 {
		t.Errorf("server accepted %d connections over 2 runs, want a redial after the first", n)
	}
}
