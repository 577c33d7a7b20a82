package main

import (
	"sort"
	"time"
)

// The reference kernel is the benchmark's yardstick for how fast the
// host is right now. The build host speeds up and slows down by 20-50 %
// for minutes at a time, all workloads together, CPU time with wall
// time; a run's fastest pass moved 12-14 % between quartiles over ten
// runs while that pass divided by the kernel timed just before it moved
// 3-6 % (README "Spread"). So the bounded host metrics are a pass's
// cost in units of this kernel, and the raw milliseconds are reported
// per layer.
//
// The kernel does what the engines do to memory: allocate many small
// objects, sort them by key, link and walk them. It is fixed work in one
// goroutine, about 30 ms here. Changing it re-baselines pass_wall_ref
// and pass_cpu_ref, so it is not to be tuned.

const referenceNodes = 100000

type referenceNode struct {
	key  uint64
	next *referenceNode
	pad  [4]uint64
}

// referenceSink keeps the kernel's result alive.
var referenceSink uint64

// referenceKernel runs the fixed work once and returns its wall time in
// nanoseconds.
func referenceKernel() int64 {
	t0 := time.Now()
	nodes := make([]*referenceNode, referenceNodes)
	x := uint64(88172645463325252) // xorshift64
	for i := range nodes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		nodes[i] = &referenceNode{key: x}
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].key < nodes[b].key })
	for i := 1; i < len(nodes); i++ {
		nodes[i-1].next = nodes[i]
	}
	var sum uint64
	for p := nodes[0]; p != nil; p = p.next {
		sum += p.key
	}
	referenceSink += sum
	return since(t0)
}
