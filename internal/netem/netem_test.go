package netem

import (
	"net"
	"testing"
	"time"
)

func TestTransferTimeAnalytic(t *testing.T) {
	serialization := float64(28<<20) * 8 / 30e6 // seconds
	tests := []struct {
		name  string
		p     Profile
		bytes int64
		want  time.Duration
	}{
		{"paper model upload", WiFi30Mbps, 28 << 20,
			WiFi30Mbps.Latency + time.Duration(serialization*float64(time.Second))},
		{"zero bytes", WiFi30Mbps, 0, 2 * time.Millisecond},
		{"unlimited", Unlimited, 1 << 30, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.p.TransferTime(tt.bytes)
			if got != tt.want {
				t.Errorf("TransferTime = %v, want %v", got, tt.want)
			}
		})
	}
	// The paper's §III.B.1 estimate: a 44 MB model at 30 Mbps takes
	// about 12 seconds.
	got := WiFi30Mbps.TransferTime(44 << 20)
	if got < 11*time.Second || got > 13*time.Second {
		t.Errorf("44MB at 30Mbps = %v, paper says ~12s", got)
	}
}

func TestValidate(t *testing.T) {
	if err := WiFi30Mbps.Validate(); err != nil {
		t.Errorf("WiFi30Mbps invalid: %v", err)
	}
	if err := (Profile{BandwidthBitsPerSec: -1}).Validate(); err == nil {
		t.Error("negative bandwidth should be invalid")
	}
	if err := (Profile{Latency: -time.Second}).Validate(); err == nil {
		t.Error("negative latency should be invalid")
	}
}

func TestShapeUnlimitedPassThrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := Shape(a, Unlimited); got != a {
		t.Error("unlimited profile should return the original conn")
	}
}

// fakeClock drives a shaped conn deterministically.
type fakeClock struct {
	now   time.Time
	slept time.Duration
}

func (f *fakeClock) Now() time.Time        { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.slept += d; f.now = f.now.Add(d) }

func TestShapedWritePacing(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		buf := make([]byte, 1<<20)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	clock := &fakeClock{now: time.Unix(0, 0)}
	sc := &Conn{
		Conn:    a,
		profile: Profile{BandwidthBitsPerSec: 8e6, Latency: 10 * time.Millisecond}, // 1 MB/s
		sleep:   clock.Sleep,
		now:     clock.Now,
	}
	// First write: latency + 100 KB at 1 MB/s = 10ms + 100ms.
	if _, err := sc.Write(make([]byte, 100<<10)); err != nil {
		t.Fatal(err)
	}
	want := 10*time.Millisecond + time.Duration(float64(100<<10)/1e6*float64(time.Second))
	if d := clock.slept - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("first write slept %v, want ~%v", clock.slept, want)
	}
	// Immediate second write continues the burst: no extra latency.
	before := clock.slept
	if _, err := sc.Write(make([]byte, 100<<10)); err != nil {
		t.Fatal(err)
	}
	wantSecond := time.Duration(float64(100<<10) / 1e6 * float64(time.Second))
	if d := (clock.slept - before) - wantSecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("second write slept %v, want ~%v (no extra latency)", clock.slept-before, wantSecond)
	}
	// A write that comes back a little late — within the propagation delay
	// of the last one's return — continues the burst as if it had come on
	// time; one later than that pays the delay.
	for _, c := range []struct {
		gap, want time.Duration
	}{
		{200 * time.Microsecond, wantSecond - 200*time.Microsecond},
		{9 * time.Millisecond, wantSecond - 9*time.Millisecond},
		{11 * time.Millisecond, wantSecond + 10*time.Millisecond},
	} {
		clock.now = clock.now.Add(c.gap)
		before = clock.slept
		if _, err := sc.Write(make([]byte, 100<<10)); err != nil {
			t.Fatal(err)
		}
		if d := (clock.slept - before) - c.want; d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("a write %v after the link fell idle slept %v, want ~%v", c.gap, clock.slept-before, c.want)
		}
	}
}

func TestShapedConnRealTransfer(t *testing.T) {
	// End-to-end over a real pipe with a fast profile: verify data
	// integrity and that pacing actually delays delivery.
	a, b := net.Pipe()
	defer b.Close()
	shaped := Shape(a, Profile{BandwidthBitsPerSec: 8e9}) // 1 GB/s: fast but measurable
	defer shaped.Close()
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(payload))
		total := 0
		for total < len(buf) {
			n, err := b.Read(buf[total:])
			if err != nil {
				done <- nil
				return
			}
			total += n
		}
		done <- buf
	}()
	if _, err := shaped.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil {
		t.Fatal("reader failed")
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}
