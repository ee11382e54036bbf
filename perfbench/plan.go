package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mptwino/internal/model"
	"mptwino/internal/noc"
	"mptwino/internal/planner"
	"mptwino/internal/sim"
)

// goldenDir holds the committed plan dumps plan-validate checks against.
const goldenDir = "internal/planner/testdata"

// planBench plans VGG-16 and AlexNet with the default fleet and w_mp++,
// simulates each plan and replays its fabrics on the flit-level NoC. The
// inputs are fixed, so the seed is unused.
type planBench struct {
	sys    sim.System
	nets   []planNet
	plans  []planner.Plan
	iters  []float64 // simulated iteration seconds per network
	checks [][]planner.NoCCheck
}

type planNet struct {
	key    string // metric suffix and golden file stem
	net    model.Network
	golden []byte
}

func (b *planBench) setup(uint64) error {
	nets := []planNet{{key: "vgg16", net: model.VGG16()}, {key: "alexnet", net: model.AlexNet()}}
	for i := range nets {
		g, err := os.ReadFile(filepath.Join(goldenDir, "plan_"+nets[i].key+".tsv"))
		if err != nil {
			return err
		}
		nets[i].golden = g
	}
	*b = planBench{sys: sim.DefaultSystem(), nets: nets}
	return nil
}

func (b *planBench) warm() error {
	if err := b.run(); err != nil {
		return err
	}
	return b.check()
}

func (b *planBench) run() error {
	b.plans, b.iters, b.checks = b.plans[:0], b.iters[:0], b.checks[:0]
	for _, n := range b.nets {
		p := planner.Build(n.net, planner.Options{System: b.sys})
		r := b.sys.SimulateNetworkWithPlan(n.net, sim.WMpFull, p.Strategies())
		b.plans = append(b.plans, p)
		b.iters = append(b.iters, r.IterationSec)
		b.checks = append(b.checks, planner.ValidateNoC(p))
	}
	return nil
}

// check requires each plan dump to equal its committed golden byte for
// byte, the simulated plan to take the time the planner reported, and
// every flit-level check to fall in the bands the planner tests allow.
func (b *planBench) check() error {
	for i, n := range b.nets {
		var buf bytes.Buffer
		if err := b.plans[i].WriteTSV(&buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), n.golden) {
			return fmt.Errorf("%s: plan dump differs from %s", n.key, filepath.Join(goldenDir, "plan_"+n.key+".tsv"))
		}
		if b.iters[i] != b.plans[i].ExecSec {
			return fmt.Errorf("%s: simulated plan takes %v s, planner reported %v s", n.key, b.iters[i], b.plans[i].ExecSec)
		}
		if len(b.checks[i]) == 0 {
			return fmt.Errorf("%s: no fabrics to validate", n.key)
		}
		for _, c := range b.checks[i] {
			lo, hi := 0.8, 1.6
			if c.Pattern == "cell-a2a" {
				lo, hi = 0.9, 4.5
			}
			if !(c.Ratio >= lo && c.Ratio <= hi) {
				return fmt.Errorf("%s: %s size %d sim/model ratio %v outside [%v, %v]", n.key, c.Pattern, c.Size, c.Ratio, lo, hi)
			}
		}
	}
	return nil
}

// imagesPerOp counts the training images whose iteration one op plans
// and simulates.
func (b *planBench) imagesPerOp() int {
	var n int
	for _, pn := range b.nets {
		n += pn.net.Batch
	}
	return n
}

// commBytesPerOp is the per-worker bytes the chosen plans move in one
// iteration of each network, as the planner accounts them.
func (b *planBench) commBytesPerOp() float64 {
	var n int64
	for _, p := range b.plans {
		for _, c := range p.Choices {
			n += c.AchievedBytes * int64(c.Repeat)
		}
	}
	return float64(n)
}

func (b *planBench) traced(tr *tracer, acc *layerAcc) (float64, error) {
	clockHz := noc.DefaultConfig().ClockHz
	b.plans, b.iters, b.checks = b.plans[:0], b.iters[:0], b.checks[:0]
	op := tr.begin("op.plan_validate", "op", tidCalls, -1)
	for _, n := range b.nets {
		parent := tr.begin("net."+n.key, "op", tidCalls, op)

		id := tr.begin("planner.build", "planner", tidCalls, parent)
		p := planner.Build(n.net, planner.Options{System: b.sys})
		acc.add("planner.build_s", tr.end(id))
		for _, c := range p.Choices {
			acc.add("planner.candidates", float64(c.Candidates))
			acc.add("planner.pruned", float64(c.Pruned))
		}

		id = tr.begin("sim.simulate_plan", "sim", tidCalls, parent)
		r := b.sys.SimulateNetworkWithPlan(n.net, sim.WMpFull, p.Strategies())
		acc.add("sim.simulate_plan_s", tr.end(id))
		acc.set("sim.model_iter_s."+n.key, r.IterationSec)

		id = tr.begin("noc.validate", "noc", tidCalls, parent)
		checks := planner.ValidateNoC(p)
		acc.add("noc.validate_s", tr.end(id))
		acc.add("noc.checks", float64(len(checks)))
		for _, c := range checks {
			acc.add("noc.sim_cycles", math.Round(c.SimUS*clockHz/1e6))
			acc.max("noc.model_ratio_max", c.Ratio)
		}
		tr.end(parent)

		b.plans = append(b.plans, p)
		b.iters = append(b.iters, r.IterationSec)
		b.checks = append(b.checks, checks)
	}
	return tr.end(op), b.check()
}
