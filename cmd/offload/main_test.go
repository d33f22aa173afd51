package main

import (
	"testing"

	"websnap/internal/core"
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
