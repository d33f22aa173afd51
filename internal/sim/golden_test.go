package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"websnap/internal/fleet"
)

// goldenDigests pins every deterministic output of the package: sha256 over
// the JSON encoding of each sweep's points and each figure's rows, captured
// at e778241 (the last commit with two event loops). A digest that moves
// means the simulator's numbers moved; a refactor must keep all of them.
var goldenDigests = map[string]string{
	"load/batch1":     "f27229aaef5fe59786dc1c36af1262fd62b5264c4b84a0f02755a107a7cf55b3",
	"load/batch8":     "85faa312ac2456a2a0e0bea3c4a198f2bdbe5f33ca5b5ce4f8d8cbdbd60d5958",
	"fleet/unbounded": "790bd879f67912537ef52b4fd0e1f16bfb1d7d7d79178cc92efc425a92e924f9",
	"fleet/evict+slo": "72b086467a11da242e260522b8dc6f5ab719ebd20fdbd810403812aeb39291d1",
	"fleet/shed":      "864d847df6ac2d14eb6ef63f3ca4235693f1face1e92bfccd77724cd81e62d17",
	"pipeline":        "80688a25cef47bd92863f14f8657e730717d3496a67da7192ee2ca4370631cf9",
	"fig6":            "3e0fe5aeee6b9775c9905959b2fac063b2f7ffb8a74ad32fcdac355d4885c164",
	"fig7":            "be39785dafdc60bb623149332877ed445233a475aba9583ba24791e4f76c8d42",
	"table1":          "50148ac7ecfe4a2a1ca59cb5b63a81d98f4283c8a780f24c6799cf2911fe5d3c",
}

func TestGoldenDigests(t *testing.T) {
	loadSweep := func(batch int) func() (any, error) {
		return func() (any, error) {
			return LoadSweep("googlenet", []int{1, 8, 64}, LoadConfig{MaxBatch: batch})
		}
	}
	fleetSweep := func(servers []int, clients int, cfg FleetConfig) func() (any, error) {
		return func() (any, error) {
			return FleetSweep("googlenet", servers, clients,
				[]fleet.Policy{fleet.PolicyHash, fleet.PolicyLoadWeighted}, cfg)
		}
	}
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"load/batch1", loadSweep(1)},
		{"load/batch8", loadSweep(8)},
		{"fleet/unbounded", fleetSweep([]int{2, 4}, 64, FleetConfig{RoamEvery: 2})},
		{"fleet/evict+slo", fleetSweep([]int{2, 4}, 64,
			FleetConfig{RoamEvery: 2, StoreEvictEvery: 10, SLOObjective: 3 * time.Second})},
		// 400 sessions on two 1-worker servers: more than half are shed, so
		// the admit-or-shed rule and the fallback decision are pinned too.
		{"fleet/shed", fleetSweep([]int{2}, 400, FleetConfig{RoamEvery: 2, Capacities: []int{1}})},
		{"pipeline", func() (any, error) {
			return PipelineSweep(PipelineConfig{
				Depths:         []int{2, 3},
				BandwidthsMbps: []float64{30},
				LoadsMillis:    []float64{0, 50},
				Requests:       20,
			})
		}},
		{"fig6", func() (any, error) { return Fig6() }},
		{"fig7", func() (any, error) { return Fig7() }},
		{"table1", func() (any, error) { return Table1() }},
	}
	if len(cases) != len(goldenDigests) {
		t.Fatalf("%d cases but %d pinned digests", len(cases), len(goldenDigests))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != goldenDigests[tc.name] {
				t.Errorf("digest = %s, want %s", got, goldenDigests[tc.name])
			}
		})
	}
}
