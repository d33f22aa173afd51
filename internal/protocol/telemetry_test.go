package protocol

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestSpanNodeWalkAndRoundTrip(t *testing.T) {
	root := &SpanNode{
		Op: "serve", Addr: "edge-a", Micros: 100, Detail: "app",
		Children: []*SpanNode{
			{Op: "execute", Micros: 60},
			{Op: "presend_resolve", Addr: "edge-b", Micros: 30, Children: []*SpanNode{
				{Op: "registry_locate", Addr: "reg", Micros: 5},
				{Op: "blob_serve", Addr: "edge-c", Micros: 20},
			}},
		},
	}
	var ops []string
	root.Walk(func(n *SpanNode) { ops = append(ops, n.Op) })
	want := []string{"serve", "execute", "presend_resolve", "registry_locate", "blob_serve"}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("Walk order = %v, want %v", ops, want)
	}
	data, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanNode
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, root) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, *root)
	}
	(*SpanNode)(nil).Walk(func(*SpanNode) { t.Fatal("nil walk visited a node") })
}

func TestStatsDigestRoundTrip(t *testing.T) {
	d := &StatsDigest{
		Stages: map[string]HistDigest{
			"execute": {Buckets: [][2]int64{{3, 7}, {9, 1}}, Count: 8, SumNanos: 12345},
		},
		Decisions:    map[string]uint64{"snapshot_full": 7, "shed": 1},
		QueueDepth:   2,
		StoreBytes:   1 << 20,
		UptimeMillis: 4200,
	}
	data, err := json.Marshal(FleetRegisterHeader{Addr: "a", Capacity: 1, Stats: d})
	if err != nil {
		t.Fatal(err)
	}
	var back FleetRegisterHeader
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Stats, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back.Stats, d)
	}
}
