// Customtracker: implement a user-defined Rowhammer tracker against the
// public Mitigator hook, register it as a named scheme, and run it through
// the full simulator.
//
// The tracker here is a deliberately simple "counter-PARA": a small table
// of per-bank saturating counters (indexed by hashed row) that issues a
// coupled DRFMsb when any counter crosses half the threshold. It is *not* a
// secure design — the point is to show the extension surface: OnActivate
// decisions, sampling callbacks, storage accounting, and the registry path
// that makes a custom tracker a first-class peer of the built-ins (usable
// as Config.Scheme, cacheable, listed by -list-schemes and /v1/schemes,
// shardable across dreamd).
package main

import (
	"context"
	"fmt"
	"log"

	dream "repro"
)

// counterPARA is a toy tracker demonstrating the Mitigator interface.
type counterPARA struct {
	tth    uint32
	counts [][]uint32 // [bank][hashed slot]
	mits   uint64
}

func newCounterPARA(banks, slots int, tth uint32) *counterPARA {
	c := &counterPARA{tth: tth, counts: make([][]uint32, banks)}
	for i := range c.counts {
		c.counts[i] = make([]uint32, slots)
	}
	return c
}

// Name implements dream.Mitigator.
func (c *counterPARA) Name() string { return "example-counter-para" }

// OnActivate implements dream.Mitigator: count, and mitigate on threshold.
func (c *counterPARA) OnActivate(now dream.Tick, bank int, row uint32) dream.Decision {
	slot := (row * 2654435761) % uint32(len(c.counts[bank]))
	c.counts[bank][slot]++
	if c.counts[bank][slot] < c.tth {
		return dream.Decision{}
	}
	c.counts[bank][slot] = 0
	c.mits++
	// Close this activation with Pre+Sample and DRFM it immediately
	// (coupled, like Figure 4).
	return dream.Decision{
		Sample:   true,
		CloseNow: true,
		PostOps:  []dream.Op{{Kind: dream.OpDRFMsb, Bank: bank}},
	}
}

// OnSampled implements dream.Mitigator.
func (c *counterPARA) OnSampled(now dream.Tick, bank int, row uint32) {}

// OnMitigations implements dream.Mitigator.
func (c *counterPARA) OnMitigations(now dream.Tick, mits []dream.Mitigation) {}

// OnRefresh implements dream.Mitigator: decay all counters at each REF so
// the table tracks recent activity.
func (c *counterPARA) OnRefresh(now dream.Tick, refIndex uint64) []dream.Op {
	if refIndex%64 == 0 {
		for _, bank := range c.counts {
			for i := range bank {
				bank[i] /= 2
			}
		}
	}
	return nil
}

// StorageBits implements dream.Mitigator.
func (c *counterPARA) StorageBits() int64 {
	return int64(len(c.counts)) * int64(len(c.counts[0])) * 10
}

// The registry path: register once (typically from init), then the scheme is
// addressable by name everywhere a built-in is. The purity contract in
// return: Build must depend only on its arguments (randomness via env.RNG),
// and the name must bake in every parameter — here the slot count and
// threshold are fixed, so "example-counter-para" fully identifies behavior.
func init() {
	dream.MustRegisterScheme("example-counter-para", dream.SchemeDescriptor{
		Build: func(env dream.SchemeEnv, sub int) (dream.Mitigator, error) {
			return newCounterPARA(env.Banks, 256, 48), nil
		},
		Security: dream.SecurityModel{Kind: dream.SecurityProbabilistic,
			Note: "toy example; hash aliasing makes it insecure by design"},
		Desc: "example counter-PARA tracker from examples/customtracker",
	})
}

func main() {
	cfg := dream.Config{
		Workload: "omnetpp",
		Scheme:   "example-counter-para",
		TRH:      2000,
		Seed:     11,
	}
	res, err := dream.SimulateContext(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom tracker on omnetpp: IPC sum %.3f, ACTs %d, DRFMsb %d, RLP %.2f\n",
		res.IPCSum(), res.Activations, res.DRFMsbs, res.RLP)
	fmt.Printf("storage: %.1f KB per sub-channel\n", float64(res.StorageBits)/8/1024)

	fmt.Println("\nAny type implementing the Mitigator interface plugs into the controller;")
	fmt.Println("see internal/core for the real DREAM-R and DREAM-C implementations.")
}
