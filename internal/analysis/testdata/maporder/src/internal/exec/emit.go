// Fixture for the maporder analyzer: order-tainted data (map-range
// loop variables, select arrivals, unordered helper results) reaching
// order-sensitive sinks is a violation; sorted emission, loop-invariant
// emission and integer folds are not.
package exec

import (
	"bytes"
	"fmt"
	"sort"

	"hivempi/internal/kvio"
)

// The PR 7 bug class reduced to its essence: encoding records in map
// iteration order makes the run's bytes differ across runs.
func badEncode(m map[string][]byte, buf []byte) []byte {
	for k, v := range m {
		buf = kvio.AppendKV(buf, []byte(k), v) // want "the kvio wire encoder (AppendKV) receives data whose order derives from map iteration order"
	}
	return buf
}

func okEncodeSorted(m map[string][]byte, buf []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = kvio.AppendKV(buf, []byte(k), m[k])
	}
	return buf
}

func badPrint(counts map[string]int) {
	for k, n := range counts {
		fmt.Printf("%s=%d\n", k, n) // want "fmt.Printf output receives data whose order derives from map iteration order"
	}
}

func badBuffer(m map[string]string, out *bytes.Buffer) {
	for k := range m {
		out.WriteString(k) // want "a bytes.Buffer receives data whose order derives from map iteration order"
	}
}

// Loop-invariant emission in map order is byte-identical: no finding.
func okInvariant(m map[string]int, out *bytes.Buffer) {
	for range m {
		out.WriteString(".")
	}
}

// Integer folds over a map are order-independent: no finding.
func okMaxFold(counts map[string]int) int {
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	fmt.Println(max)
	return max
}

// unsortedKeys returns the map's keys in iteration order; the summary
// marks its result unordered so callers inherit the taint.
func unsortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func badInterprocedural(m map[string]int) {
	for _, k := range unsortedKeys(m) {
		fmt.Println(k) // want "fmt.Println output receives data whose order derives from the unordered result of unsortedKeys"
	}
}

func okInterproceduralSorted(m map[string]int) {
	keys := unsortedKeys(m)
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k)
	}
}

// emitAll leaks its parameter's order into a sink; callers passing
// unordered data are reported at the call site via SinkParams.
func emitAll(lines []string, out *bytes.Buffer) {
	for _, l := range lines {
		out.WriteString(l)
	}
}

func badThroughHelper(m map[string]string, out *bytes.Buffer) {
	vals := make([]string, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	emitAll(vals, out) // want "emitAll (which emits its argument to an order-sensitive sink) receives data whose order derives from map iteration order"
}

func badSelectArrival(a, b <-chan string, out *bytes.Buffer) {
	for i := 0; i < 4; i++ {
		var line string
		select {
		case line = <-a:
		case line = <-b:
		}
		out.WriteString(line) // want "a bytes.Buffer receives data whose order derives from select arrival order"
	}
}

// An A-side receive loop that spills its cache in arrival order: the
// spill run's bytes depend on which sender was first.
func badRecvRunUnsorted(a, b <-chan []byte) {
	var run, spill kvio.Run
	for i := 0; i < 4; i++ {
		var blk []byte
		select {
		case blk = <-a:
		case blk = <-b:
		}
		run.AppendBlock(blk)
	}
	for _, e := range run.Entries() {
		spill.AppendWire(run.Wire(e)) // want "the kvio run writer receives data whose order derives from select arrival order"
	}
}

// The same loop with the run sorted by its content before the spill:
// no finding.
func okRecvRunSorted(a, b <-chan []byte) {
	var run, spill kvio.Run
	for i := 0; i < 4; i++ {
		var blk []byte
		select {
		case blk = <-a:
		case blk = <-b:
		}
		run.AppendBlock(blk)
	}
	run.SortByKeyValue()
	for _, e := range run.Entries() {
		spill.AppendWire(run.Wire(e))
	}
}

// The same loop sorted by (partition, key): no finding.
func okRecvRunSortedByPartKey(a, b <-chan []byte) {
	var run, spill kvio.Run
	for i := 0; i < 4; i++ {
		var blk []byte
		select {
		case blk = <-a:
		case blk = <-b:
		}
		run.AppendBlock(blk)
	}
	run.SortByPartKey()
	for _, e := range run.Entries() {
		spill.AppendWire(run.Wire(e))
	}
}

// A run sorted, then appended to in arrival order again: the order the
// sort gave is gone, and the spill fires.
func badRecvRunAppendedAfterSort(a, b <-chan []byte) {
	var run, spill kvio.Run
	run.SortByKeyValue()
	for i := 0; i < 4; i++ {
		var blk []byte
		select {
		case blk = <-a:
		case blk = <-b:
		}
		run.AppendBlock(blk)
	}
	for _, e := range run.Entries() {
		spill.AppendWire(run.Wire(e)) // want "the kvio run writer receives data whose order derives from select arrival order"
	}
}

func okSuppressed(m map[string]int) {
	for k := range m {
		//lint:ignore hivelint/maporder fixture demonstrates an audited exemption
		fmt.Println(k)
	}
}
