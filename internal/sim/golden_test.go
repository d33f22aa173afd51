package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"
)

// goldenDigests pins every deterministic output of the package: sha256 over
// the JSON encoding of each sweep's points and each figure's rows. A digest
// that moves means the simulator's numbers moved; a refactor must keep all
// of them. Last re-recorded, together with BENCH_fleet.json and
// BENCH_pipeline.json, when typed arrays began to travel as base64 of their
// bits (snapshot.Float32TextBytesPerValue: 16/3 B per value where the
// json.Marshal sample had said 7.88) and StateBytes began to be measured on
// the request a full offload ships. The fleet/* digests alone were
// re-recorded, with BENCH_fleet.json, when the fleet model began to place
// sessions by the live roamer's rule (roam.Pick) with the load hint the
// scheduler's own Stats advertise, one row per fleet size. fleet/shed alone
// was re-recorded (e9885ebd… → c9f9553e…), with BENCH_fleet.json, when every
// simulated server became a sched.Queue: a server now advertises no service
// mean before its first Finish, as a live edged does, where the hand-built
// hint had advertised the model's service time from the start.
var goldenDigests = map[string]string{
	"load/batch1":     "14d9cdcb8404275b82c46d8c4e5c31a0b90735b578a9201fb598b818a8f310ae",
	"fleet/unbounded": "76830be6cc811173c5c0adebfb400f86459a92f500137a2bd3cb5d4642f769ff",
	"fleet/evict+slo": "4287d9910d116d33347a7e971dc12d08a8db0e2bde9df88d7d5d4eb698ea6729",
	"fleet/shed":      "c9f9553ea6001f8d818b4535cbe4b3894138dd4b893aa03ac6ee3eb724462a49",
	"pipeline":        "9d60a6fac95ea07bcd56617ff8fb15ac6cc785da80226fa95814b922916c5a6f",
	"fig6":            "5fdfbb8e3032b99fe9fb985ca5d6a38d466fefd6c379e57b19273ee1c5c1bc44",
	"fig7":            "10749c9657d2e2ca1b904274f454ae470708e197033b67b820ad57d1a2551462",
	"table1":          "2ec13cda7225005365bcbb9c882ffed4fe0f20329713529c9d687002e46f9ceb",
}

func TestGoldenDigests(t *testing.T) {
	fleetSweep := func(servers []int, clients int, cfg FleetConfig) func() (any, error) {
		return func() (any, error) {
			return FleetSweep("googlenet", servers, clients, cfg)
		}
	}
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"load/batch1", func() (any, error) {
			return LoadSweep("googlenet", []int{1, 8, 64}, LoadConfig{})
		}},
		{"fleet/unbounded", fleetSweep([]int{2, 4}, 64, FleetConfig{RoamEvery: 2})},
		{"fleet/evict+slo", fleetSweep([]int{2, 4}, 64,
			FleetConfig{RoamEvery: 2, StoreEvictEvery: 10, SLOObjective: 3 * time.Second})},
		// 400 sessions on two 1-worker servers: more than half are shed, so
		// the queue's admission rule and the fallback decision are pinned too.
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
