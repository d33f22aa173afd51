package main

import (
	"net"
	"strings"
	"testing"
)

func TestResolveAdvertise(t *testing.T) {
	concrete := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7080}
	wildcard := &net.TCPAddr{Port: 7080}
	tests := []struct {
		name      string
		advertise string
		lnAddr    net.Addr
		want      string
		wantErr   string
	}{
		{"explicit", "10.0.0.5:7080", wildcard, "10.0.0.5:7080", ""},
		{"explicit hostname", "edge-a.local:7080", wildcard, "edge-a.local:7080", ""},
		{"explicit differs from listen", "203.0.113.9:9000", concrete, "203.0.113.9:9000", ""},
		{"explicit wildcard ip", "0.0.0.0:7080", concrete, "", "wildcard"},
		{"explicit empty host", ":7080", concrete, "", "wildcard"},
		{"explicit no port", "10.0.0.5", concrete, "", "missing port"},
		{"derived from concrete listener", "", concrete, "127.0.0.1:7080", ""},
		{"derived from wildcard listener", "", wildcard, "", "-advertise"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := resolveAdvertise(tt.advertise, tt.lnAddr)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("resolveAdvertise(%q, %v) = %q, want %q", tt.advertise, tt.lnAddr, got, tt.want)
			}
		})
	}
}

func TestRunRejectsFleetFlagsWithoutRegistry(t *testing.T) {
	err := run(":0", false, "ubuntu-12.04", "", "", "", "", 0, 0, 0, true, false,
		schedConfig{workers: 2, batch: 1}, fleetConfig{advertise: "10.0.0.5:7080"}, boundsConfig{}, telemetryConfig{})
	if err == nil || !strings.Contains(err.Error(), "-registry") {
		t.Errorf("-advertise without -registry: err = %v, want -registry mention", err)
	}
	err = run(":0", false, "ubuntu-12.04", "", "", "", "", 0, 0, 0, true, false,
		schedConfig{workers: 2, batch: 1}, fleetConfig{ttl: 1}, boundsConfig{}, telemetryConfig{})
	if err == nil || !strings.Contains(err.Error(), "-registry-ttl") {
		t.Errorf("-registry-ttl without -registry: err = %v, want -registry-ttl mention", err)
	}
}
