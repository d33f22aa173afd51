package testutil

import (
	"runtime"
	"runtime/debug"

	"websnap/internal/tensor"
)

// Allocs is the mean cost of one call of a measured function: heap
// allocations, bytes allocated, and buffers drawn from the tensor pool.
type Allocs struct {
	Mallocs, Bytes uint64
	PoolGets       int64
}

// MeasureAllocs runs fn runs times with the collector held off and returns
// the mean cost of one call. A collection in the middle of a measurement
// moves every sync.Pool's contents to its victim cache, where the private
// slot another processor filled is out of reach, and the call after it
// rebuilds what the pool held: pooled contexts, tensor buffers, flate
// writers. So an allocation gate read with the collector running measures
// the collector's timing as much as the code. Disabling the collector waits
// for a cycle in progress to finish, so none starts until MeasureAllocs
// restores the old setting. It does not collect first: that would empty
// the pools the caller's warm-up calls filled. Unlike testing.AllocsPerRun
// it leaves GOMAXPROCS alone, because the GEMM gates need two processors;
// a gate that does not pins one itself, around its warm-up too.
func MeasureAllocs(runs int, fn func()) Allocs {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	gets := tensor.ReadPoolStats().Gets
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return Allocs{
		Mallocs:  (after.Mallocs - before.Mallocs) / n,
		Bytes:    (after.TotalAlloc - before.TotalAlloc) / n,
		PoolGets: (tensor.ReadPoolStats().Gets - gets) / int64(runs),
	}
}
