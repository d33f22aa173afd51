package partition

import (
	"reflect"
	"testing"

	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
)

// evaluate is the original 2-device candidate evaluator, kept as the
// independent reference for Analyze now that Analyze is built from the K=2
// chain: it prices one split from the public costmodel/netem API alone,
// sharing no table or helper with chain.go.
func evaluate(infos []nn.LayerInfo, p nn.PartitionPoint, cfg Config) (Candidate, error) {
	prec := cfg.Precision
	if prec == "" {
		prec = nn.PrecFloat32
	}
	clientTime, err := cfg.Client.RangeTimePrec(infos, 0, p.Index+1, prec)
	if err != nil {
		return Candidate{}, err
	}
	serverTime, err := cfg.Server.RangeTimePrec(infos, p.Index+1, len(infos), prec)
	if err != nil {
		return Candidate{}, err
	}
	featureValues := p.FeatureBytes / 4
	featureText := int64(float64(featureValues) * cfg.TextBytesPerValue)
	upBytes := featureText + cfg.StateOverheadBytes
	downBytes := cfg.ResultBytes + cfg.StateOverheadBytes
	transfer := cfg.Network.TransferTime(upBytes) + cfg.Network.TransferTime(downBytes)
	overhead := cfg.Client.SnapshotTime(upBytes) + cfg.Server.SnapshotTime(upBytes) +
		cfg.Server.SnapshotTime(downBytes) + cfg.Client.SnapshotTime(downBytes)
	c := Candidate{
		Point:            p,
		ClientTime:       clientTime,
		ServerTime:       serverTime,
		TransferTime:     transfer,
		SnapshotOverhead: overhead,
		QueueDelay:       cfg.ServerQueueDelay,
		FeatureTextBytes: featureText,
	}
	c.Total = c.ClientTime + c.ServerTime + c.TransferTime + c.SnapshotOverhead + c.QueueDelay
	return c, nil
}

// TestAnalyzeMatchesLegacyEvaluate pins Analyze's plans field for field
// against the reference evaluator, on every catalog model under every
// legacy configuration at both precisions: the chain-built candidates must
// be the numbers the sim figures and the benchmark's best_index were
// produced from.
func TestAnalyzeMatchesLegacyEvaluate(t *testing.T) {
	for _, name := range models.Names() {
		net, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		infos, err := net.Describe()
		if err != nil {
			t.Fatal(err)
		}
		points, err := net.PartitionPoints()
		if err != nil {
			t.Fatal(err)
		}
		for cfgName, cfg := range legacyVariants() {
			for _, prec := range []nn.Precision{"", nn.PrecInt8} {
				cfg.TextBytesPerValue = snapshot.Float32TextBytesPerValue
				cfg.Precision = prec
				plan, err := Analyze(net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.Candidates) != len(points) {
					t.Fatalf("%s/%s: %d candidates for %d points", name, cfgName, len(plan.Candidates), len(points))
				}
				for i, p := range points {
					want, err := evaluate(infos, p, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plan.Candidates[i], want) {
						t.Errorf("%s/%s/%q point %s:\n got %+v\nwant %+v", name, cfgName, prec, p.Label, plan.Candidates[i], want)
					}
				}
			}
		}
	}
}
