package main

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"websnap/internal/fleet"
	"websnap/internal/obs"
	"websnap/internal/tensor"
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
	err := run(":0", false, "ubuntu-12.04", "", "", "", 0, 0, 0, true, false,
		schedConfig{workers: 2}, fleetConfig{advertise: "10.0.0.5:7080"}, boundsConfig{}, telemetryConfig{})
	if err == nil || !strings.Contains(err.Error(), "-registry") {
		t.Errorf("-advertise without -registry: err = %v, want -registry mention", err)
	}
}

// TestRunRejectsPprofWithoutMetricsAddr: edged checks its flag pairings
// before it binds or joins a fleet. A held -listen port must not turn the
// flag error into a bind error, and a free one must not leave a member
// registered in the registry for one TTL.
func TestRunRejectsPprofWithoutMetricsAddr(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	rs := fleet.NewRegistryServer(fleet.NewRegistry(fleet.RegistryOptions{}), nil)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(rln) //nolint:errcheck // Close ends Serve
	defer rs.Close()
	for _, listen := range []string{held.Addr().String(), "127.0.0.1:0"} {
		err := run(listen, false, "ubuntu-12.04", "", "", "", 0, 0, 0, true, true,
			schedConfig{workers: 2}, fleetConfig{registry: rln.Addr().String()}, boundsConfig{}, telemetryConfig{})
		if err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
			t.Errorf("-listen %s, -pprof without -metrics-addr: err = %v, want -metrics-addr mention", listen, err)
		}
	}
	if v := rs.Registry().Version(); v != 0 {
		t.Errorf("registry saw %d registrations from runs that rejected their flags, want 0", v)
	}
}

// TestRunFailsOnHeldMetricsAddr: edged exits with the bind error within a
// second when its -metrics-addr port is taken, and never registers with its
// fleet, instead of serving on without /metrics, /healthz and /readyz.
func TestRunFailsOnHeldMetricsAddr(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	rs := fleet.NewRegistryServer(fleet.NewRegistry(fleet.RegistryOptions{}), nil)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(rln) //nolint:errcheck // Close ends Serve
	defer rs.Close()
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", false, "ubuntu-12.04", "", held.Addr().String(), "", 0, 0, 0, true, false,
			schedConfig{workers: 2}, fleetConfig{registry: rln.Addr().String()}, boundsConfig{}, telemetryConfig{})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, syscall.EADDRINUSE) || !strings.Contains(err.Error(), "-metrics-addr") {
			t.Errorf("run with a held -metrics-addr = %v, want its bind error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("edged still running 1 s after its -metrics-addr port was found taken")
	}
	if v := rs.Registry().Version(); v != 0 {
		t.Errorf("registry saw %d registrations from a run whose admin port was taken, want 0", v)
	}
}

func TestKernelInfoMetric(t *testing.T) {
	r := obs.NewRegistry()
	registerKernelInfo(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	isa, tile, workers := tensor.KernelInfo()
	want := fmt.Sprintf("websnap_kernel_info{isa=%q,tile=%q,workers=\"%d\"} 1\n", isa, tile, workers)
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, sb.String())
	}
	if tile != "4x16" {
		t.Fatalf("tile = %q, want 4x16", tile)
	}
}
