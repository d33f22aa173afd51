package costmodel

import (
	"testing"
	"time"

	"websnap/internal/models"
	"websnap/internal/nn"
)

func TestServerFasterThanClient(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			net, err := models.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			client, err := ClientOdroid.NetworkTime(net)
			if err != nil {
				t.Fatal(err)
			}
			server, err := ServerX86.NetworkTime(net)
			if err != nil {
				t.Fatal(err)
			}
			if server >= client {
				t.Errorf("server %v >= client %v", server, client)
			}
			// The paper's Fig 6 shape: the server is several times
			// faster (same order as the HW ratio).
			if ratio := float64(client) / float64(server); ratio < 3 || ratio > 30 {
				t.Errorf("client/server ratio = %.1f, want 3..30", ratio)
			}
		})
	}
}

func TestLayerTimeMonotonicInFLOPs(t *testing.T) {
	small := nn.LayerInfo{Type: nn.TypeConv, FLOPs: 1e6}
	big := nn.LayerInfo{Type: nn.TypeConv, FLOPs: 1e9}
	ts, err := ClientOdroid.LayerTimePrec(small, nn.PrecFloat32)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ClientOdroid.LayerTimePrec(big, nn.PrecFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if tb <= ts {
		t.Errorf("1 GFLOP layer (%v) should take longer than 1 MFLOP layer (%v)", tb, ts)
	}
}

func TestLayerTimeDefaultThroughput(t *testing.T) {
	d := Device{Name: "d", DefaultFLOPS: 1e9, LayerOverhead: 0}
	got, err := d.LayerTimePrec(nn.LayerInfo{Type: nn.TypeConv, FLOPs: 1e9}, nn.PrecFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if got != time.Second {
		t.Errorf("LayerTimePrec = %v, want 1s", got)
	}
}

func TestLayerTimeBadThroughput(t *testing.T) {
	d := Device{Name: "broken"}
	if _, err := d.LayerTimePrec(nn.LayerInfo{Type: nn.TypeConv, FLOPs: 1}, nn.PrecFloat32); err == nil {
		t.Error("zero throughput should error")
	}
}

func TestRangeTimeBounds(t *testing.T) {
	net, err := models.Build(models.AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := net.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ClientOdroid.RangeTime(infos, 5, 2); err == nil {
		t.Error("reversed range should error")
	}
	if _, err := ClientOdroid.RangeTime(infos, 0, len(infos)+1); err == nil {
		t.Error("overlong range should error")
	}
	zero, err := ClientOdroid.RangeTime(infos, 3, 3)
	if err != nil || zero != 0 {
		t.Errorf("empty range = %v, %v; want 0, nil", zero, err)
	}
}

func TestRangeTimeAdditive(t *testing.T) {
	net, err := models.Build(models.GenderNet)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := net.Describe()
	if err != nil {
		t.Fatal(err)
	}
	k := len(infos) / 2
	front, err := ClientOdroid.RangeTime(infos, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	rear, err := ClientOdroid.RangeTime(infos, k, len(infos))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ClientOdroid.RangeTime(infos, 0, len(infos))
	if err != nil {
		t.Fatal(err)
	}
	if diff := (front + rear) - full; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("front+rear = %v, full = %v", front+rear, full)
	}
}

func TestSnapshotTimeGrowsWithSize(t *testing.T) {
	small := ClientOdroid.SnapshotTime(1 << 10)
	big := ClientOdroid.SnapshotTime(100 << 20)
	if big <= small {
		t.Errorf("snapshot time should grow with size: %v vs %v", small, big)
	}
	d := Device{SnapshotFixed: time.Millisecond}
	if got := d.SnapshotTime(1 << 30); got != time.Millisecond {
		t.Errorf("zero rate should fall back to fixed cost, got %v", got)
	}
}

// TestPaperCalibration pins the Fig 6 orderings the profiles were calibrated
// for; see DESIGN.md §4.
func TestPaperCalibration(t *testing.T) {
	google, err := models.Build(models.GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	client, err := ClientOdroid.NetworkTime(google)
	if err != nil {
		t.Fatal(err)
	}
	server, err := ServerX86.NetworkTime(google)
	if err != nil {
		t.Fatal(err)
	}
	// GoogLeNet: tens of seconds on the client, a few seconds on the
	// server (no-GPU JS framework, per the paper).
	if client < 10*time.Second || client > 60*time.Second {
		t.Errorf("GoogLeNet client time = %v, want 10..60s", client)
	}
	if server < 500*time.Millisecond || server > 10*time.Second {
		t.Errorf("GoogLeNet server time = %v, want 0.5..10s", server)
	}
}
