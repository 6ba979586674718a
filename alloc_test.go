package supernpu

import (
	"context"
	"runtime"
	"testing"
)

// Cold-report allocation budget on one worker. A cold report measured
// 2.42 MB and 9 541 mallocs under `go test` and 2.46 MB and 9 837 mallocs
// under `go test -race` (go1.24, linux/amd64). The budget leaves 25 %
// headroom over the larger byte figure and 27 % over the larger malloc
// count. The simulator that copied its compute layers into a job list,
// grew Report.Layers by append, kept a result slot per layer and built a
// cell library per simulation measured 9.75 MB and 15 551 mallocs here,
// and fails the gate.
const (
	coldReportBytesBudget   = 3_080_000
	coldReportMallocsBudget = 12_500
)

// TestColdReportAllocationBudget gates what one cold full report allocates
// on one worker. Allocation counts repeat to within a few dozen mallocs,
// so the gate needs little headroom. A first report warms what a process builds
// only once, such as the shared CNN templates; the measured report then
// starts from cleared caches.
func TestColdReportAllocationBudget(t *testing.T) {
	ctx := context.Background()
	SetParallelism(1)
	t.Cleanup(func() {
		SetParallelism(0)
		ClearCaches()
	})
	ClearCaches()
	if _, err := RunAllExperiments(ctx); err != nil {
		t.Fatal(err)
	}
	ClearCaches()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunAllExperiments(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	bytes := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("cold report on one worker: %d bytes, %d mallocs", bytes, mallocs)
	if bytes > coldReportBytesBudget {
		t.Errorf("a cold report allocated %d bytes, over its %d-byte budget", bytes, coldReportBytesBudget)
	}
	if mallocs > coldReportMallocsBudget {
		t.Errorf("a cold report made %d mallocs, over its budget of %d", mallocs, coldReportMallocsBudget)
	}
}
