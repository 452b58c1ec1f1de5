package vo

import (
	"runtime"
	"testing"
	"time"

	"glare/internal/workload"
)

// A closed grid must leave nothing reachable behind: no timer, goroutine or
// pool may pin the registries, WAL state or replica fan-out of a finished
// run. Otherwise every memory figure taken after it measures its ghost.
func TestClosedGridReleasesHeap(t *testing.T) {
	const slack = 2 << 20
	dir := t.TempDir()
	before := heapAfterGC()
	func() {
		v, err := Build(Options{Sites: 3, GroupSize: 3, ReplicaK: 3, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.ElectSuperPeers(); err != nil {
			t.Fatal(err)
		}
		for i, ty := range workload.SyntheticTypes(2000) {
			if _, err := v.Nodes[1+i%2].RDM.RegisterType(ty); err != nil {
				t.Fatal(err)
			}
		}
	}()
	// Close returns before net/http's connection goroutines have exited,
	// and until they do they pin the grid; a second is ample for them and
	// well short of the 3 s a leaked replicate.AwaitQuorum timer holds on.
	time.Sleep(time.Second)
	if after := heapAfterGC(); after > before+slack {
		t.Fatalf("HeapAlloc %d KiB a second after Close, %d KiB before Build: %d KiB still reachable (slack %d KiB)",
			after>>10, before>>10, (after-before)>>10, slack>>10)
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
