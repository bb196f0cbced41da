package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/store"
)

// The -store report measures the coordination state plane and the
// checkpoint plane rebuilt in this repo's sharded-store change.
//
// Throughput ladder: the pre-sharding design — one mutex over one map,
// allocating on every Get and Put — re-created here as mutexStore, against
// internal/store's 32-shard, zero-steady-state-alloc implementation, under
// a mixed 80/20 read/write workload on ~1KB values. The headline figure is
// speedup_c256 (sharded over single-mutex ops/sec at 256 goroutines).
//
// Watch fan-out: with 10k idle watchers parked on other keys, a Put on an
// unwatched key must do zero fan-out work (watch_work_per_put == 0) — the
// O(changed-keys) contract, proven by the store's own delivery counter.
//
// Checkpoints: delta saves and warm restores must cost O(dirty), not
// O(model): as the parameter count grows with the dirty set fixed, delta
// bytes and warm-restore work stay flat while the full-blob baseline (the
// whole state gob-encoded on every save) grows linearly.
type storeBenchRow struct {
	Name        string  `json:"name"`
	Impl        string  `json:"impl"` // "mutex" | "sharded"
	Concurrency int     `json:"concurrency"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

type storeWatchRow struct {
	Name            string  `json:"name"`
	IdleWatchers    int     `json:"idle_watchers"`
	Puts            int     `json:"puts"`
	WatchWorkPerPut float64 `json:"watch_work_per_put"`
	NsPerPut        float64 `json:"ns_per_put"`
}

type storeCkptRow struct {
	Name           string  `json:"name"`
	NumElems       int     `json:"num_elems"`
	DirtyElems     int     `json:"dirty_elems"`
	FullBlobBytes  int64   `json:"full_blob_bytes"`
	DeltaBytes     int64   `json:"delta_bytes"`
	DeltaChunks    int     `json:"delta_chunks"`
	FullRestoreNs  float64 `json:"full_restore_ns"`
	WarmRestoreNs  float64 `json:"warm_restore_ns"`
	ChunksReplayed int     `json:"chunks_replayed"`
}

type storeBenchReport struct {
	Note        string          `json:"note"`
	ValueSize   int             `json:"value_bytes"`
	Rows        []storeBenchRow `json:"rows"`
	SpeedupC256 float64         `json:"speedup_c256"`
	Watch       []storeWatchRow `json:"watch"`
	Checkpoint  []storeCkptRow  `json:"checkpoint"`
	// Growth ratios largest/smallest model: the delta path must stay flat
	// (≈1) while the full-blob path tracks the model size.
	DeltaBytesGrowth float64 `json:"delta_bytes_growth"`
	FullBytesGrowth  float64 `json:"full_bytes_growth"`
	WarmNsGrowth     float64 `json:"warm_restore_ns_growth"`
}

// mutexStore is the pre-sharding coordination store re-created for the
// comparison rows: one mutex, one map, a copy allocated on every Get and
// every Put — the design internal/store replaced.
type mutexStore struct {
	mu   sync.Mutex
	data map[string][]byte
	rev  int64
}

func newMutexStore() *mutexStore {
	return &mutexStore{data: make(map[string][]byte)}
}

func (m *mutexStore) Put(key string, value []byte) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rev++
	m.data[key] = append([]byte(nil), value...)
	return m.rev
}

func (m *mutexStore) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// xorshift is a tiny per-goroutine PRNG so key choice costs no allocations
// and no shared state.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// measureStore runs conc goroutines × opsPer mixed operations and reports
// whole-workload throughput with process-wide allocation figures.
func measureStore(name, impl string, conc, opsPer int, op func(g, i int) error) (storeBenchRow, error) {
	row := storeBenchRow{Name: name, Impl: impl, Concurrency: conc, Ops: conc * opsPer}
	clk := clock.Wall{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clk.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	for g := 0; g < conc; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if err := op(g, i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Since(start)
	runtime.ReadMemStats(&after)
	close(errs)
	if err := <-errs; err != nil {
		return row, fmt.Errorf("%s: %w", name, err)
	}
	n := float64(row.Ops)
	row.NsPerOp = float64(elapsed.Nanoseconds()) / n
	row.OpsPerSec = n / elapsed.Seconds()
	row.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / n
	row.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / n
	return row, nil
}

const storeBenchKeys = 256

// storeKeyNames is precomputed so key selection costs the hot loops no
// allocations — the rows measure the stores, not fmt.
var storeKeyNames = func() [storeBenchKeys]string {
	var keys [storeBenchKeys]string
	for i := range keys {
		keys[i] = fmt.Sprintf("job/worker-%03d", i)
	}
	return keys
}()

func storeBenchKey(n uint64) string {
	return storeKeyNames[n%storeBenchKeys]
}

// storeThroughput runs the mutex vs sharded ladder: 80% reads, 20% writes
// over 256 keys holding valueSize-byte values.
func storeThroughput(report *storeBenchReport, valueSize int, quick bool) error {
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte(i)
	}
	levels := []struct {
		conc, ops, quickOps int
	}{
		{1, 200000, 20000},
		{64, 4000, 400},
		{256, 1500, 150},
	}
	var mutexC256, shardedC256 float64

	old := newMutexStore()
	for i := 0; i < storeBenchKeys; i++ {
		old.Put(storeBenchKey(uint64(i)), value)
	}
	for _, lv := range levels {
		ops := lv.ops
		if quick {
			ops = lv.quickOps
		}
		rngs := make([]xorshift, lv.conc)
		for g := range rngs {
			rngs[g] = xorshift(g*2654435761 + 1)
		}
		row, err := measureStore(fmt.Sprintf("mutex_c%d", lv.conc), "mutex", lv.conc, ops,
			func(g, i int) error {
				r := rngs[g].next()
				key := storeBenchKey(r)
				if r%10 < 8 {
					if _, ok := old.Get(key); !ok {
						return fmt.Errorf("miss on %s", key)
					}
					return nil
				}
				old.Put(key, value)
				return nil
			})
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, row)
		if lv.conc == 256 {
			mutexC256 = row.OpsPerSec
		}
	}

	st := store.New()
	for i := 0; i < storeBenchKeys; i++ {
		st.Put(storeBenchKey(uint64(i)), value)
	}
	for _, lv := range levels {
		ops := lv.ops
		if quick {
			ops = lv.quickOps
		}
		rngs := make([]xorshift, lv.conc)
		bufs := make([][]byte, lv.conc)
		for g := range rngs {
			rngs[g] = xorshift(g*2654435761 + 1)
			bufs[g] = make([]byte, 0, valueSize)
		}
		row, err := measureStore(fmt.Sprintf("sharded_c%d", lv.conc), "sharded", lv.conc, ops,
			func(g, i int) error {
				r := rngs[g].next()
				key := storeBenchKey(r)
				if r%10 < 8 {
					buf, _, err := st.GetInto(key, bufs[g][:0])
					if err != nil {
						return err
					}
					bufs[g] = buf
					return nil
				}
				st.Put(key, value)
				return nil
			})
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, row)
		if lv.conc == 256 {
			shardedC256 = row.OpsPerSec
		}
	}
	if mutexC256 > 0 {
		report.SpeedupC256 = shardedC256 / mutexC256
	}
	return nil
}

// storeWatchBench parks idle watchers on 10k distinct keys and measures a
// Put storm on (a) a key nobody watches and (b) a watched key: fan-out work
// — the store's own delivery counter — must be 0 and 1 per Put.
func storeWatchBench(report *storeBenchReport, quick bool) error {
	st := store.New()
	watchers, puts := 10000, 20000
	if quick {
		watchers, puts = 1000, 2000
	}
	cancels := make([]func(), 0, watchers+1)
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	for i := 0; i < watchers; i++ {
		_, cancel := st.Watch(fmt.Sprintf("idle/%05d", i))
		cancels = append(cancels, cancel)
	}
	clk := clock.Wall{}
	value := []byte("x")

	before := st.WatchWork()
	start := clk.Now()
	for i := 0; i < puts; i++ {
		st.Put("hot/unwatched", value)
	}
	elapsed := clk.Since(start)
	report.Watch = append(report.Watch, storeWatchRow{
		Name:            "put_unwatched_key",
		IdleWatchers:    watchers,
		Puts:            puts,
		WatchWorkPerPut: float64(st.WatchWork()-before) / float64(puts),
		NsPerPut:        float64(elapsed.Nanoseconds()) / float64(puts),
	})

	ch, cancel := st.Watch("hot/watched")
	cancels = append(cancels, cancel)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range ch {
		}
	}()
	before = st.WatchWork()
	start = clk.Now()
	for i := 0; i < puts; i++ {
		st.Put("hot/watched", value)
	}
	elapsed = clk.Since(start)
	// Delivery is asynchronous (a central dispatcher goroutine); wait for
	// it to work through the queued events before reading the counter.
	waitStart := clk.Now()
	for st.WatchWork()-before < int64(puts) && clk.Since(waitStart) < 10*time.Second {
		runtime.Gosched()
	}
	report.Watch = append(report.Watch, storeWatchRow{
		Name:            "put_watched_key",
		IdleWatchers:    watchers,
		Puts:            puts,
		WatchWorkPerPut: float64(st.WatchWork()-before) / float64(puts),
		NsPerPut:        float64(elapsed.Nanoseconds()) / float64(puts),
	})
	cancel()
	<-drained
	return nil
}

// storeCkptBench grows the model with the dirty set fixed and compares the
// delta path (bytes written, warm-restore work) against a full gob blob.
func storeCkptBench(report *storeBenchReport, quick bool) error {
	sizes := []int{16384, 65536, 262144}
	if quick {
		sizes = []int{4096, 16384, 65536}
	}
	const dirtyElems = 64
	clk := clock.Wall{}
	for _, n := range sizes {
		ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
		state := make([]float64, n)
		for i := range state {
			state[i] = float64(i) * 0.5
		}
		name := fmt.Sprintf("model-%d", n)
		if _, err := ds.Save(name, []byte("hdr"), state); err != nil {
			return err
		}
		base := append([]float64(nil), state...)
		baseSeq, _ := ds.LastSeq(name)

		// Touch a fixed, size-independent sliver of the model.
		for i := 0; i < dirtyElems; i++ {
			state[i] += 1.0
		}
		st, err := ds.Save(name, []byte("hdr"), state)
		if err != nil {
			return err
		}

		// The full-blob baseline: the whole state gob-encoded per save.
		var blob bytes.Buffer
		if err := gob.NewEncoder(&blob).Encode(state); err != nil {
			return err
		}

		start := clk.Now()
		if _, _, _, err := ds.Restore(name); err != nil {
			return err
		}
		fullNs := float64(clk.Since(start).Nanoseconds())

		start = clk.Now()
		_, rs, err := ds.RestoreFrom(name, base, baseSeq)
		if err != nil {
			return err
		}
		warmNs := float64(clk.Since(start).Nanoseconds())

		report.Checkpoint = append(report.Checkpoint, storeCkptRow{
			Name:           name,
			NumElems:       n,
			DirtyElems:     dirtyElems,
			FullBlobBytes:  int64(blob.Len()),
			DeltaBytes:     st.BytesWritten,
			DeltaChunks:    st.ChunksWritten,
			FullRestoreNs:  fullNs,
			WarmRestoreNs:  warmNs,
			ChunksReplayed: rs.ChunksReplayed,
		})
	}
	first := report.Checkpoint[0]
	last := report.Checkpoint[len(report.Checkpoint)-1]
	if first.DeltaBytes > 0 {
		report.DeltaBytesGrowth = float64(last.DeltaBytes) / float64(first.DeltaBytes)
	}
	if first.FullBlobBytes > 0 {
		report.FullBytesGrowth = float64(last.FullBlobBytes) / float64(first.FullBlobBytes)
	}
	if first.WarmRestoreNs > 0 {
		report.WarmNsGrowth = last.WarmRestoreNs / first.WarmRestoreNs
	}
	return nil
}

// storeBenches runs all three sections of the -store report.
func storeBenches(quick bool) (*storeBenchReport, error) {
	const valueSize = 1024
	report := &storeBenchReport{
		Note: "mutex = pre-sharding single-mutex allocating store; sharded = internal/store (32 shards, " +
			"zero-alloc steady state); 80/20 read/write over 256 keys of 1KB. watch rows prove O(changed-keys) " +
			"fan-out via the delivery counter. checkpoint rows grow the model with a fixed 64-elem dirty set: " +
			"delta bytes and warm-restore work stay flat, the full gob blob grows with the model.",
		ValueSize: valueSize,
	}
	if err := storeThroughput(report, valueSize, quick); err != nil {
		return nil, err
	}
	if err := storeWatchBench(report, quick); err != nil {
		return nil, err
	}
	if err := storeCkptBench(report, quick); err != nil {
		return nil, err
	}
	return report, nil
}

// writeStoreJSON runs the store benchmarks and writes the report.
func writeStoreJSON(path string, quick bool, w io.Writer) error {
	report, err := storeBenches(quick)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	for _, r := range report.Rows {
		fmt.Fprintf(w, "%-16s %10.0f ns/op %12.0f ops/s %8.2f allocs/op %10.1f B/op\n",
			r.Name, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp, r.BytesPerOp)
	}
	for _, r := range report.Watch {
		fmt.Fprintf(w, "%-20s %6d watchers %8.3f work/put %10.0f ns/put\n",
			r.Name, r.IdleWatchers, r.WatchWorkPerPut, r.NsPerPut)
	}
	for _, r := range report.Checkpoint {
		fmt.Fprintf(w, "%-14s full=%8dB delta=%6dB warm=%8.0fns (replayed %d chunks) cold=%8.0fns\n",
			r.Name, r.FullBlobBytes, r.DeltaBytes, r.WarmRestoreNs, r.ChunksReplayed, r.FullRestoreNs)
	}
	fmt.Fprintf(w, "sharded vs mutex at c256: %.1fx; delta growth %.2fx vs full-blob growth %.2fx; wrote %s\n",
		report.SpeedupC256, report.DeltaBytesGrowth, report.FullBytesGrowth, path)
	return nil
}
