package hive

import (
	"testing"

	"hivempi/internal/chaos"
	"hivempi/internal/cluster"
	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/metrics"
	"hivempi/internal/testutil/leakcheck"
	"hivempi/internal/trace"
)

// Node-level failure-domain tests: the DAG scheduler's lost-output
// relaunch, the planner's DEAD-node blacklist and the DataMPI rank-loss
// retry, all driven through the cluster membership.

// fastDetector builds a membership over the driver's slaves that
// declares a crashed node DEAD at the very next heartbeat tick, so a
// single completed stage is enough to land a death mid-query.
func fastDetector(d *Driver) *cluster.Membership {
	return cluster.New(cluster.Config{
		Nodes:             d.Conf.Slaves,
		HeartbeatInterval: 1,
		SuspectAfterSec:   0.2,
		DeadAfterSec:      0.5,
	})
}

// newPinnedDriver builds a single-replica driver whose base tables all
// live on s1: s2 and s3 are suspended during seeding, so every base
// block is pinned to s1 and intermediates (written with all nodes up)
// spread over the empty nodes. Placement is fully seeded, so repeated
// constructions place identically.
func newPinnedDriver(t *testing.T) *Driver {
	t.Helper()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize:   64 << 10,
		Replication: 1,
		Nodes:       []string{"s1", "s2", "s3"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3"}
	conf.SlotsPerNode = 2
	d := NewDriver(env, core.New(), conf)
	d.Conf.MaxTaskAttempts = 3 // relaunched stages fail ranks over to live hosts
	env.FS.NodeSuspect("s2")
	env.FS.NodeSuspect("s3")
	seedSales(t, d)
	env.FS.NodeUp("s2")
	env.FS.NodeUp("s3")
	return d
}

// TestDAGRelaunchAfterOutputLoss: with single-replica intermediates, a
// node dying after the producer stage takes the producer's output with
// it. The consumer's BlockLostError must relaunch the producer — not
// fail the query or degrade the engine — and the recovery must be
// visible in traces and metrics.
func TestDAGRelaunchAfterOutputLoss(t *testing.T) {
	defer leakcheck.Check(t)()
	// Dry run: placement is deterministic, so an identical driver tells
	// us which node serves the producer's sink — the consumer stage's
	// map task host. That node is the victim; base data is pinned to s1,
	// so killing it loses only the intermediate.
	dry := newPinnedDriver(t)
	dres, err := dry.Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.Stages) != 2 || len(dres.Stages[1].Producers) == 0 {
		t.Fatalf("unexpected plan shape: %d stages", len(dres.Stages))
	}
	victim := dres.Stages[1].Producers[0].Host
	if victim == "s1" || victim == "" {
		t.Fatalf("sink landed on %q; cannot isolate intermediate loss", victim)
	}

	d := newPinnedDriver(t)
	m := fastDetector(d)
	m.SetChaos(chaos.NewPlane(chaos.Plan{Specs: []chaos.Spec{
		{Kind: chaos.NodeCrash, Node: victim},
	}}))
	d.AttachCluster(m, nil)

	res, err := d.Execute(faultQuery)
	if err != nil {
		t.Fatalf("query did not survive losing the producer's node: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("relaunched query produced %d groups, want 3", len(res.Rows))
	}
	if res.Degraded != "" {
		t.Fatalf("node loss degraded the engine to %q; relaunch should handle it", res.Degraded)
	}
	relaunched := 0
	for _, st := range res.Stages {
		if st.Relaunched {
			relaunched++
		}
	}
	if relaunched == 0 {
		t.Fatal("no stage carries the Relaunched trace flag")
	}
	if n := d.Env.Metrics.Counter(metrics.CtrTasksRelaunched).Value(); n == 0 {
		t.Fatal("sched.tasks.relaunched did not move")
	}
	if st, _ := m.State(victim); st != cluster.Dead {
		t.Fatalf("victim state = %v, want DEAD", st)
	}
}

// TestSchedulerBlacklistsDeadNodes: a node already DEAD when the query
// plans must receive no tasks — placement falls over to surviving
// replica holders without burning retry attempts.
func TestSchedulerBlacklistsDeadNodes(t *testing.T) {
	defer leakcheck.Check(t)()
	// Replication 2 over 3 nodes: losing one node leaves the factor
	// restorable on the two survivors, so the end-state assertion can
	// demand a fully repaired namespace.
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize:   8 << 10,
		Replication: 2,
		Nodes:       []string{"s1", "s2", "s3"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3"}
	conf.SlotsPerNode = 2
	d := NewDriver(env, core.New(), conf)
	d.Conf.MaxTaskAttempts = 3
	seedSales(t, d)
	m := fastDetector(d)
	d.AttachCluster(m, nil)
	if err := m.MarkDead("s3"); err != nil {
		t.Fatal(err)
	}

	res, err := d.Execute(faultQuery)
	if err != nil {
		t.Fatalf("query with a pre-dead node: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Rows))
	}
	for _, st := range res.Stages {
		for _, task := range st.Producers {
			if task.Host == "s3" {
				t.Fatalf("stage %s placed a producer on the dead node", st.Name)
			}
		}
	}
	// The dead node's replicas were dropped and re-replication restored
	// the factor within the query's heartbeat ticks.
	if u := d.Env.FS.UnderReplicated(); u != 0 {
		t.Fatalf("%d blocks still under-replicated after the query", u)
	}
	if n := d.Env.Metrics.Counter(metrics.CtrDFSRereplBlocks).Value(); n == 0 {
		t.Fatal("dfs.rereplicated.blocks did not move")
	}
}

// TestRankLossRetriesOntoSurvivors: a node dying mid-query after the
// first stage leaves later stages holding a stale hostfile — their A
// ranks were planned round-robin over all slaves. Placement now
// consults the membership on every attempt, so the lost ranks fail
// over to surviving hosts at spawn time without spending the retry
// budget (the budget remains the backstop for deaths the detector has
// not yet noticed).
func TestRankLossRetriesOntoSurvivors(t *testing.T) {
	defer leakcheck.Check(t)()
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize:   8 << 10,
		Replication: 2,
		Nodes:       []string{"s1", "s2", "s3"},
	})}
	conf := exec.DefaultEngineConf()
	conf.Slaves = []string{"s1", "s2", "s3"}
	conf.SlotsPerNode = 2
	d := NewDriver(env, core.New(), conf)
	d.Conf.MaxTaskAttempts = 3
	seedSales(t, d)

	// Kill the first slave: stage 2's A rank 0 is planned there
	// (round-robin) while the death lands at stage 1's completion tick.
	m := fastDetector(d)
	m.SetChaos(chaos.NewPlane(chaos.Plan{Specs: []chaos.Spec{
		{Kind: chaos.NodeCrash, Node: "s1"},
	}}))
	d.AttachCluster(m, nil)

	res, err := d.Execute(faultQuery)
	if err != nil {
		t.Fatalf("query did not survive mid-run node death: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Rows))
	}
	// With two replicas per block no data was lost, and the membership
	// knew about the death before the later stages launched: their ranks
	// fail over at placement time, so no retry budget is spent...
	for _, st := range res.Stages {
		if st.Attempts > 1 {
			t.Errorf("stage %s burned %d attempts; placement should have failed over at spawn",
				st.Name, st.Attempts)
		}
	}
	// ...and the last stage (planned strictly after the death tick)
	// schedules nothing on the dead host.
	last := res.Stages[len(res.Stages)-1]
	for _, task := range append(append([]*trace.Task{}, last.Producers...), last.Consumers...) {
		if task.Host == "s1" {
			t.Fatalf("stage %s placed a task on the dead node", last.Name)
		}
	}
	if u := d.Env.FS.UnderReplicated(); u != 0 {
		t.Fatalf("%d blocks under-replicated after query-time repair", u)
	}
}
