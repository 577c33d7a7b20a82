package hadoop

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// runWordCount executes a word-count job over the corpus.
func runWordCount(t *testing.T, cfg Config, words []string) (map[string]int, *Job) {
	t.Helper()
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[string]int{}
	per := (len(words) + cfg.NumMaps - 1) / cfg.NumMaps
	err = job.Run(
		func(m *MapContext) error {
			lo, hi := m.TaskID()*per, (m.TaskID()+1)*per
			if hi > len(words) {
				hi = len(words)
			}
			if lo > len(words) {
				lo = len(words)
			}
			for _, w := range words[lo:hi] {
				if err := m.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		func(r *ReduceContext) error {
			for {
				key, vals, err := r.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				total := 0
				for _, v := range vals {
					n, _ := strconv.Atoi(string(v))
					total += n
				}
				mu.Lock()
				counts[string(key)] += total
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return counts, job
}

func wordCorpus(n int) ([]string, map[string]int) {
	words := make([]string, 0, n)
	want := map[string]int{}
	vocab := []string{"apple", "banana", "cherry", "damson", "elder", "fig", "grape"}
	for i := 0; i < n; i++ {
		w := vocab[(i*i+5*i)%len(vocab)]
		words = append(words, w)
		want[w]++
	}
	return words, want
}

func checkCounts(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%s] = %d, want %d", w, got[w], c)
		}
	}
}

func TestWordCount(t *testing.T) {
	words, want := wordCorpus(5000)
	got, _ := runWordCount(t, Config{NumMaps: 4, NumReduces: 3}, words)
	checkCounts(t, got, want)
}

func TestWordCountTinySortBufferForcesSpills(t *testing.T) {
	words, want := wordCorpus(3000)
	cfg := Config{NumMaps: 3, NumReduces: 2, SortBufferBytes: 256}
	got, job := runWordCount(t, cfg, words)
	checkCounts(t, got, want)
	var spills int64
	for _, m := range job.MapMetrics() {
		spills += m.SpillCount
	}
	if spills <= int64(cfg.NumMaps) {
		t.Errorf("expected multiple spills per map, got %d total", spills)
	}
}

func TestCombinerReducesShuffleBytes(t *testing.T) {
	words, want := wordCorpus(4000)
	shuffleBytes := func(comb Combiner) (map[string]int, int64) {
		cfg := Config{NumMaps: 2, NumReduces: 2, Combiner: comb}
		got, job := runWordCount(t, cfg, words)
		var b int64
		for _, m := range job.MapMetrics() {
			b += m.ShuffleOutBytes
		}
		return got, b
	}
	plain, plainBytes := shuffleBytes(nil)
	combined, combinedBytes := shuffleBytes(sumCombiner)
	checkCounts(t, plain, want)
	checkCounts(t, combined, want)
	if combinedBytes >= plainBytes {
		t.Errorf("combiner did not reduce shuffle: %d >= %d", combinedBytes, plainBytes)
	}
}

func TestReduceGroupsSortedAndDistinct(t *testing.T) {
	job, err := NewJob(Config{NumMaps: 3, NumReduces: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var keys []string
	err = job.Run(
		func(m *MapContext) error {
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("key%03d", (i*11+m.TaskID()*29)%150)
				if err := m.Emit([]byte(k), []byte("x")); err != nil {
					return err
				}
			}
			return nil
		},
		func(r *ReduceContext) error {
			for {
				key, _, err := r.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				mu.Lock()
				keys = append(keys, string(key))
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("reduce keys not sorted")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Errorf("duplicate group %q", keys[i])
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	job, err := NewJob(Config{NumMaps: 2, NumReduces: 0})
	if err != nil {
		t.Fatal(err)
	}
	var ran sync.WaitGroup
	ran.Add(2)
	err = job.Run(
		func(m *MapContext) error {
			defer ran.Done()
			if err := m.Emit([]byte("k"), []byte("v")); err == nil {
				return fmt.Errorf("Emit should fail on map-only job")
			}
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ran.Wait()
}

func TestMapErrorPropagates(t *testing.T) {
	job, err := NewJob(Config{NumMaps: 2, NumReduces: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(
		func(m *MapContext) error {
			if m.TaskID() == 1 {
				return fmt.Errorf("mapper exploded")
			}
			return m.Emit([]byte("a"), []byte("b"))
		},
		func(r *ReduceContext) error {
			for {
				if _, _, err := r.NextGroup(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err == nil || !strings.Contains(err.Error(), "mapper exploded") {
		t.Errorf("map error not propagated: %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job, err := NewJob(Config{NumMaps: 1, NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(
		func(m *MapContext) error {
			for i := 0; i < 10; i++ {
				if err := m.Emit([]byte{byte(i)}, []byte("v")); err != nil {
					return err
				}
			}
			return nil
		},
		func(r *ReduceContext) error {
			return fmt.Errorf("reducer exploded")
		})
	if err == nil || !strings.Contains(err.Error(), "reducer exploded") {
		t.Errorf("reduce error not propagated: %v", err)
	}
}

func TestMetricsBalanceAcrossShuffe(t *testing.T) {
	words, _ := wordCorpus(2000)
	_, job := runWordCount(t, Config{NumMaps: 3, NumReduces: 4}, words)
	var out, in int64
	for _, m := range job.MapMetrics() {
		out += m.ShuffleOutBytes
		if m.SpillCount == 0 {
			t.Error("map recorded zero spills (final spill expected)")
		}
	}
	for _, r := range job.ReduceMetrics() {
		in += r.ShuffleInBytes
	}
	if out != in {
		t.Errorf("shuffle bytes out %d != in %d", out, in)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewJob(Config{NumMaps: 0, NumReduces: 1}); err == nil {
		t.Error("NumMaps=0 should fail")
	}
	if _, err := NewJob(Config{NumMaps: 1, NumReduces: -1}); err == nil {
		t.Error("negative reduces should fail")
	}
	if _, err := NewJob(Config{NumMaps: 2, NumReduces: 1, Hosts: []string{"x"}}); err == nil {
		t.Error("wrong Hosts length should fail")
	}
}

func TestSlotLimitedExecution(t *testing.T) {
	// 8 maps with 2 slots: concurrency must never exceed 2.
	var mu sync.Mutex
	cur, peak := 0, 0
	job, err := NewJob(Config{NumMaps: 8, NumReduces: 1, MapSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(
		func(m *MapContext) error {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			for i := 0; i < 100; i++ {
				if err := m.Emit([]byte{byte(i)}, []byte("v")); err != nil {
					return err
				}
			}
			mu.Lock()
			cur--
			mu.Unlock()
			return nil
		},
		func(r *ReduceContext) error {
			for {
				if _, _, err := r.NextGroup(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 2 {
		t.Errorf("map concurrency peaked at %d with 2 slots", peak)
	}
}
