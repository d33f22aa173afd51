package partition

import (
	"errors"
	"testing"
	"time"

	"websnap/internal/costmodel"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
)

func chainConfig3() ChainConfig {
	return ChainConfig{
		Hops: []Hop{
			{Device: costmodel.ClientOdroid},
			{Device: costmodel.ServerX86, QueueDelay: 3 * time.Millisecond},
			{Device: costmodel.ServerX86GPU, QueueDelay: time.Millisecond},
		},
		Links: []netem.Profile{
			netem.WiFi30Mbps,
			{BandwidthBitsPerSec: 100e6, Latency: time.Millisecond},
		},
		StateOverheadBytes: 90 << 10,
		ResultBytes:        4 << 10,
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero bandwidth", func(c *Config) { c.Network = netem.Profile{} }},
		{"negative bandwidth", func(c *Config) { c.Network.BandwidthBitsPerSec = -5 }},
		{"zero default FLOPS", func(c *Config) { c.Client.DefaultFLOPS = 0; c.Client.FLOPSByType = nil }},
		{"negative default FLOPS", func(c *Config) { c.Server.DefaultFLOPS = -1 }},
		{"negative typed FLOPS", func(c *Config) {
			c.Server.FLOPSByType = map[nn.LayerType]float64{nn.TypeConv: -1e9}
		}},
		{"negative snapshot rate", func(c *Config) { c.Client.SnapshotBytesPerSec = -1 }},
		{"negative state bytes", func(c *Config) { c.StateOverheadBytes = -1 }},
		{"negative result bytes", func(c *Config) { c.ResultBytes = -1 }},
		{"negative queue delay", func(c *Config) { c.ServerQueueDelay = -time.Second }},
		{"negative text width", func(c *Config) { c.TextBytesPerValue = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := paperConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
			var bad *BadConfigError
			if !errors.As(err, &bad) || bad.Field == "" {
				t.Fatalf("err = %#v, want *BadConfigError with a field name", err)
			}
		})
	}
	if err := paperConfig().Validate(); err != nil {
		t.Fatalf("paper config should validate: %v", err)
	}
}

// TestAnalyzeRejectsZeroBandwidth is the regression for the NaN/Inf guard:
// a zero bandwidth used to be taken as "unlimited" and silently skewed
// every candidate toward the largest feature; now it is a typed error.
func TestAnalyzeRejectsZeroBandwidth(t *testing.T) {
	net, err := models.Build(models.AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig()
	cfg.Network = netem.Profile{}
	if _, err := Analyze(net, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Analyze err = %v, want ErrBadConfig", err)
	}
	chain := chainConfig3()
	chain.Links[1] = netem.Profile{}
	if _, err := AnalyzeChain(net, chain); !errors.Is(err, ErrBadConfig) {
		t.Errorf("AnalyzeChain err = %v, want ErrBadConfig", err)
	}
	chain = chainConfig3()
	chain.Hops[2].Device.DefaultFLOPS = 0
	chain.Hops[2].Device.FLOPSByType = nil
	if _, err := AnalyzeChain(net, chain); !errors.Is(err, ErrBadConfig) {
		t.Errorf("AnalyzeChain bad device err = %v, want ErrBadConfig", err)
	}
}

// legacyVariants are the 2-device configs every existing table test runs
// under, plus the bandwidth extremes of TestBandwidthShiftsPartitionPoint
// and a loaded server.
func legacyVariants() map[string]Config {
	slow := paperConfig()
	slow.Network = netem.Profile{BandwidthBitsPerSec: 1e6, Latency: 20 * time.Millisecond}
	fast := paperConfig()
	fast.Network = netem.Profile{BandwidthBitsPerSec: 10e9, Latency: time.Microsecond}
	queued := paperConfig()
	queued.ServerQueueDelay = 40 * time.Millisecond
	return map[string]Config{"paper": paperConfig(), "slow": slow, "fast": fast, "queued": queued}
}

// TestChainK2MatchesLegacy pins the refactor's compatibility bar: the
// 2-hop chain DP must reproduce the legacy single-split analysis exactly —
// same chosen point, same total — on every catalog model under every
// legacy table-test configuration.
func TestChainK2MatchesLegacy(t *testing.T) {
	for _, name := range models.Names() {
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for cfgName, cfg := range legacyVariants() {
			t.Run(name+"/"+cfgName, func(t *testing.T) {
				// Pin the conversion width: both analyses must use one
				// measurement, not two calls to the measuring encoder.
				cfg.TextBytesPerValue = snapshot.Float32TextBytesPerValue
				plan, err := Analyze(net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				chainPlan, err := AnalyzeChain(net, cfg.Chain())
				if err != nil {
					t.Fatal(err)
				}
				for _, denature := range []bool{false, true} {
					want, err := plan.Choose(denature)
					if err != nil {
						t.Fatal(err)
					}
					got, err := chainPlan.Choose(denature)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Cuts) != 1 || got.Cuts[0].Index != want.Point.Index {
						t.Fatalf("denature=%v: chain cut %+v, legacy point %+v", denature, got.Cuts, want.Point)
					}
					if got.Total != want.Total {
						t.Errorf("denature=%v: chain total %v != legacy total %v", denature, got.Total, want.Total)
					}
					if got.Latency != want.Total {
						t.Errorf("denature=%v: chain latency %v != legacy total %v", denature, got.Latency, want.Total)
					}
				}
			})
		}
	}
}

// bruteChainTotal recomputes a cut set's objective value from first
// principles (public costmodel/netem API only), independently of the DP's
// prefix tables.
func bruteChainTotal(t *testing.T, infos []nn.LayerInfo, pts []nn.PartitionPoint, cuts []int, cfg ChainConfig) (latency, bottleneck time.Duration) {
	t.Helper()
	k := len(cfg.Hops)
	downBytes := cfg.ResultBytes + cfg.StateOverheadBytes
	var downCost time.Duration
	for _, l := range cfg.Links {
		downCost += l.TransferTime(downBytes)
	}
	downCost += cfg.Hops[k-1].Device.SnapshotTime(downBytes) + cfg.Hops[0].Device.SnapshotTime(downBytes)
	for h := 0; h < k; h++ {
		from, to := 0, len(infos)
		if h > 0 {
			from = pts[cuts[h-1]].Index + 1
		}
		if h < k-1 {
			to = pts[cuts[h]].Index + 1
		}
		compute, err := cfg.Hops[h].Device.RangeTime(infos, from, to)
		if err != nil {
			t.Fatal(err)
		}
		stage := compute
		if h < k-1 {
			p := pts[cuts[h]]
			up := int64(float64(p.FeatureBytes/4)*cfg.TextBytesPerValue) + cfg.StateOverheadBytes
			stage += cfg.Links[h].TransferTime(up) +
				cfg.Hops[h].Device.SnapshotTime(up) +
				cfg.Hops[h+1].Device.SnapshotTime(up) +
				cfg.Hops[h+1].QueueDelay
		} else {
			stage += downCost
		}
		latency += stage
		if stage > bottleneck {
			bottleneck = stage
		}
	}
	return latency, bottleneck
}

// bruteForceBest enumerates every strictly increasing cut tuple and
// returns the minimal objective value.
func bruteForceBest(t *testing.T, infos []nn.LayerInfo, pts []nn.PartitionPoint, cfg ChainConfig, denature bool) (time.Duration, bool) {
	t.Helper()
	k := len(cfg.Hops)
	cuts := make([]int, k-1)
	best, found := time.Duration(0), false
	var walk func(slot, from int)
	walk = func(slot, from int) {
		if slot == k-1 {
			lat, bot := bruteChainTotal(t, infos, pts, cuts, cfg)
			total := lat
			if cfg.Objective == ObjectiveThroughput {
				total = bot
			}
			if !found || total < best {
				best, found = total, true
			}
			return
		}
		for j := from; j < len(pts); j++ {
			if slot == 0 && denature && pts[j].Index == 0 {
				continue
			}
			cuts[slot] = j
			walk(slot+1, j+1)
		}
	}
	walk(0, 0)
	return best, found
}

// TestChainDPMatchesBruteForce is the DP's correctness property: on a
// small net and on every catalog model, for K of 2 and 3, both objectives,
// with and without the denaturing constraint, the DP's chosen cut set
// achieves exactly the exhaustive-enumeration optimum, and its reported
// breakdown re-evaluates to its reported total.
func TestChainDPMatchesBruteForce(t *testing.T) {
	nets := make(map[string]*nn.Network)
	tiny, err := models.BuildTinyNet("tiny-chain", 4)
	if err != nil {
		t.Fatal(err)
	}
	nets["tiny"] = tiny
	for _, name := range models.Names() {
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = net
	}
	for name, net := range nets {
		infos, err := net.Describe()
		if err != nil {
			t.Fatal(err)
		}
		pts, err := net.PartitionPoints()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3} {
			for _, obj := range []Objective{ObjectiveLatency, ObjectiveThroughput} {
				for _, denature := range []bool{false, true} {
					cfg := chainConfig3()
					cfg.Hops = cfg.Hops[:k]
					cfg.Links = cfg.Links[:k-1]
					cfg.Objective = obj
					cfg.TextBytesPerValue = snapshot.Float32TextBytesPerValue
					plan, err := AnalyzeChain(net, cfg)
					if err != nil {
						t.Fatalf("%s k=%d obj=%d: %v", name, k, obj, err)
					}
					got, gotErr := plan.Choose(denature)
					want, feasible := bruteForceBest(t, infos, pts, cfg, denature)
					if !feasible {
						if !errors.Is(gotErr, ErrNoCandidate) {
							t.Fatalf("%s k=%d obj=%d denature=%v: DP found %v, brute force found nothing", name, k, obj, denature, got.Total)
						}
						continue
					}
					if gotErr != nil {
						t.Fatalf("%s k=%d obj=%d denature=%v: DP failed (%v), brute force found %v", name, k, obj, denature, gotErr, want)
					}
					if got.Total != want {
						t.Errorf("%s k=%d obj=%d denature=%v: DP total %v != brute-force optimum %v (cuts %v)",
							name, k, obj, denature, got.Total, want, got.Cuts)
					}
					// The candidate's own breakdown must re-evaluate to the
					// total it claims.
					cutIdx := make([]int, len(got.Cuts))
					for i, c := range got.Cuts {
						found := false
						for j, p := range pts {
							if p.Index == c.Index {
								cutIdx[i], found = j, true
							}
						}
						if !found {
							t.Fatalf("cut %+v not a partition point", c)
						}
					}
					lat, bot := bruteChainTotal(t, infos, pts, cutIdx, cfg)
					if got.Latency != lat || got.Bottleneck != bot {
						t.Errorf("%s k=%d obj=%d denature=%v: breakdown latency %v/bottleneck %v, recomputed %v/%v",
							name, k, obj, denature, got.Latency, got.Bottleneck, lat, bot)
					}
				}
			}
		}
	}
}

func TestChainHopRangesPartitionAllLayers(t *testing.T) {
	net, err := models.Build(models.GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := AnalyzeChain(net, chainConfig3())
	if err != nil {
		t.Fatal(err)
	}
	best, err := plan.Choose(true)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cuts[0].Index == 0 {
		t.Error("denatured plan must keep at least one real layer on the client")
	}
	next := 0
	for i, h := range best.Hops {
		if h.From != next {
			t.Errorf("hop %d starts at %d, want %d", i, h.From, next)
		}
		if h.To <= h.From {
			t.Errorf("hop %d has empty range [%d,%d)", i, h.From, h.To)
		}
		next = h.To
	}
	if next != net.NumLayers() {
		t.Errorf("chain covers layers [0,%d), network has %d", next, net.NumLayers())
	}
}

func TestChainNoCandidate(t *testing.T) {
	// An fc-only net has a single partition point (Input): it cannot seat
	// two cuts, and with denaturing required it cannot even seat one.
	in, err := nn.NewInput("data", 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewFC("fc", 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("fc-only", in, fc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chainConfig3()
	if _, err := AnalyzeChain(net, cfg); !errors.Is(err, ErrNoCandidate) {
		t.Errorf("3-hop over 1 point: err = %v, want ErrNoCandidate", err)
	}
	cfg.Hops = cfg.Hops[:2]
	cfg.Links = cfg.Links[:1]
	plan, err := AnalyzeChain(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Choose(true); !errors.Is(err, ErrNoCandidate) {
		t.Errorf("denatured choose: err = %v, want ErrNoCandidate", err)
	}
	if _, err := plan.Choose(false); err != nil {
		t.Errorf("unconstrained choose should succeed: %v", err)
	}
}

func TestChainThroughputObjective(t *testing.T) {
	net, err := models.Build(models.AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chainConfig3()
	cfg.Objective = ObjectiveThroughput
	plan, err := AnalyzeChain(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := plan.Choose(false)
	if err != nil {
		t.Fatal(err)
	}
	if best.Total != best.Bottleneck {
		t.Errorf("throughput objective total %v != bottleneck %v", best.Total, best.Bottleneck)
	}
	if best.Bottleneck > best.Latency {
		t.Errorf("bottleneck %v exceeds end-to-end latency %v", best.Bottleneck, best.Latency)
	}
}
