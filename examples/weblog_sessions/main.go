// Web-log analytics: the workload family the paper's introduction
// motivates (HiBench-style page-visit logs). Builds a revenue report
// with a join between the rankings catalogue and the Zipfian visit log,
// then contrasts the blocking and non-blocking DataMPI shuffle styles
// on the same query (the paper's Fig. 6 experiment, programmatically).
package main

import (
	"fmt"
	"log"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hibench"
	"hivempi/internal/hive"
	"hivempi/internal/perfmodel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func newDriver(nonBlocking bool) (*hive.Driver, error) {
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes: []string{"slave1", "slave2", "slave3", "slave4",
			"slave5", "slave6", "slave7"},
	})}
	conf := exec.DefaultEngineConf()
	conf.NonBlocking = nonBlocking
	d := hive.NewDriver(env, core.New(), conf)
	d.MapJoinThresholdBytes = 1 // common join, as at paper scale
	// "5 GB" of logs at 1:1000.
	if err := hibench.Load(d, 5<<20, 7, "sequencefile", 4); err != nil {
		return nil, err
	}
	return d, nil
}

func run() error {
	d, err := newDriver(true)
	if err != nil {
		return err
	}

	// Top pages by ad revenue, with their catalogue rank.
	res, err := d.Execute(`
		SELECT r.pageurl, r.pagerank, sum(u.adrevenue) AS revenue, count(*) AS visits
		FROM rankings r JOIN uservisits u ON r.pageurl = u.desturl
		GROUP BY r.pageurl, r.pagerank
		ORDER BY revenue DESC
		LIMIT 5`)
	if err != nil {
		return err
	}
	fmt.Println("top pages by revenue (Zipfian skew makes the head heavy):")
	for _, row := range res.Rows {
		fmt.Printf("  %-42s rank=%4d revenue=%10.2f visits=%d\n",
			row[0].Str(), row[1].Int(), row[2].Float(), row[3].Int())
	}

	// Revenue per country for one quarter.
	res, err = d.Execute(`
		SELECT countrycode, sum(adrevenue) AS revenue
		FROM uservisits
		WHERE visitdate BETWEEN DATE '1999-01-01' AND DATE '1999-03-31'
		GROUP BY countrycode
		ORDER BY revenue DESC`)
	if err != nil {
		return err
	}
	fmt.Println("\nQ1-1999 revenue by country:")
	for _, row := range res.Rows {
		fmt.Printf("  %s  %12.2f\n", row[0].Str(), row[1].Float())
	}

	// Blocking vs non-blocking shuffle on the full JOIN workload.
	model := perfmodel.DefaultParams()
	fmt.Println("\nshuffle style comparison on the HiBench JOIN workload:")
	for _, nb := range []bool{false, true} {
		d, err := newDriver(nb)
		if err != nil {
			return err
		}
		d.Collector.Reset()
		if _, err := d.Run(hibench.JoinQuery); err != nil {
			return err
		}
		var sim float64
		for _, q := range d.Collector.Queries() {
			sim += model.SimulateQuery(q).Total
		}
		style := "blocking"
		if nb {
			style = "non-blocking"
		}
		fmt.Printf("  %-13s simulated %6.1fs\n", style, sim)
	}
	fmt.Println("(the non-blocking engine overlaps O-task compute with the shuffle — paper Fig. 6)")
	return nil
}
