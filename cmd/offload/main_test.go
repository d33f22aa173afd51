package main

import (
	"net"
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
