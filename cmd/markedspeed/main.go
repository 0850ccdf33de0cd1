// Command markedspeed measures marked speed (paper Definition 1).
//
// By default it benchmarks the simulated Sunwulf node classes with the
// NPB-style suite and prints Table 1. With -host it additionally
// wall-clocks the suite on the machine running the command, grounding the
// simulation's notion of a flop:
//
//	markedspeed
//	markedspeed -host -size 300 -duration 200ms
//	markedspeed -speeds measured.json
//
// With -speeds, the per-class marked speeds are also written as a JSON
// speed table that `scalescan -speeds` accepts, closing the Definition 1
// round trip: benchmark nodes here, then run the scalability study at the
// benchmarked speeds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/nasbench"
	"repro/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "markedspeed:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("markedspeed", flag.ContinueOnError)
	var (
		host      = fs.Bool("host", false, "also wall-clock the suite on this machine")
		size      = fs.Int("size", 300, "kernel size for host measurement")
		duration  = fs.Duration("duration", 150*time.Millisecond, "minimum host measurement time per kernel")
		speedsOut = fs.String("speeds", "", "write the per-class marked speeds as a scalescan -speeds table to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	suite, err := experiments.NewSuite(experiments.Quick(), nil)
	if err != nil {
		return err
	}
	// Table 1 comes from the experiment registry: markedspeed is just a
	// focused front-end for that one entry.
	outcomes, err := experiments.RunSelected(context.Background(), suite, []string{"table1"}, runner.Options{Jobs: 1})
	if err != nil {
		return err
	}
	for _, r := range experiments.Flatten(outcomes) {
		fmt.Fprint(out, r.String())
	}

	// Definition 2 on a worked example, as in the paper §4.3:
	// "Server node with 1 CPU, one SunBlade compute node and two SunFire
	// compute nodes with 1 CPU".
	example, err := cluster.New("example",
		cluster.ServerNode(0),
		cluster.BladeNode(40),
		cluster.V210Node(65, 0),
		cluster.V210Node(66, 0),
	)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nDefinition 2 example: %s\n", example)

	if *speedsOut != "" {
		if err := writeSpeedTable(*speedsOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote marked-speed table to %s (feed it to scalescan -speeds)\n", *speedsOut)
	}

	if !*host {
		return nil
	}
	fmt.Fprintln(out, "\nHost measurement (this machine):")
	var scores []nasbench.Score
	for _, k := range nasbench.Suite() {
		sc, err := nasbench.MeasureHost(k, *size, *duration)
		if err != nil {
			return err
		}
		scores = append(scores, sc)
		fmt.Fprintf(out, "  %-3s %10.1f Mflops\n", sc.Kernel, sc.Mflops)
	}
	ms, err := nasbench.MarkedSpeed(scores)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  host marked speed (suite mean): %.1f Mflops\n", ms)
	return nil
}

// writeSpeedTable benchmarks each Sunwulf node class with the NPB-style
// suite and writes the class -> marked speed map in the JSON format
// cluster.ParseSpeedTable reads.
func writeSpeedTable(path string) error {
	table := cluster.SpeedTable{Speeds: map[string]float64{}}
	for _, node := range []cluster.Node{
		cluster.ServerNode(0),
		cluster.V210Node(65, 0),
		cluster.BladeNode(40),
	} {
		ms, _, err := nasbench.MeasureNodeModel(node)
		if err != nil {
			return err
		}
		table.Speeds[node.Class] = ms
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
