package exp

import (
	"fmt"

	dreamcore "repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/tracker"
)

// The post-DREAM wave: trackers published immediately after the paper,
// implemented against the same Mitigator hook and registered through the
// public scheme registry (registry.go) so they are first-class comparands —
// cacheable, campaign-shardable, reachable from the facade and the CLIs.

// DAPPERScheme returns the performance-attack-resilient tracker, its
// space-saving table sized to DREAM-C's Table-6 budget at the cell's
// threshold (equal storage by construction).
func DAPPERScheme() Scheme {
	return Scheme{
		Name: "dapper",
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewDAPPER(tracker.DAPPERConfig{
				TRH:         env.TRH,
				Banks:       env.Banks,
				Entries:     security.DAPPEREntries(env.TRH),
				TTHOverride: env.ScaledTTH(env.TRH / 2),
				ResetPeriod: env.ResetPeriod,
			})
		},
	}
}

// QPRACScheme returns the priority-queue PRAC extension (PRAC timings, like
// MOAT).
func QPRACScheme() Scheme {
	return Scheme{
		Name: "qprac",
		PRAC: true,
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewQPRAC(tracker.QPRACConfig{
				TRH:          env.TRH,
				Banks:        env.Banks,
				QueueDepth:   security.QPRACQueueDepth,
				ETHOverride:  env.ScaledTTH(env.TRH / 2),
				PQTHOverride: env.ScaledTTH(env.TRH / 8),
				ResetPeriod:  env.ResetPeriod,
			})
		},
	}
}

// ProbScheme returns one member of the probabilistic tracker-management
// policy family ("prob-insert", "prob-replace", "prob-hybrid"), its table
// sized to the same DREAM-C budget as DAPPER.
func ProbScheme(policy tracker.ProbPolicy) Scheme {
	return Scheme{
		Name: "prob-" + policy.String(),
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewProbTracker(tracker.ProbConfig{
				TRH:         env.TRH,
				Banks:       env.Banks,
				Policy:      policy,
				Entries:     security.ProbEntries(env.TRH),
				TTHOverride: env.ScaledTTH(env.TRH / 2),
				ResetPeriod: env.ResetPeriod,
			}, env.RNG(sub).Fork(0xda99e6))
		},
	}
}

func init() {
	registerBuiltin(DAPPERScheme(), Descriptor{
		StorageKBPerBank: security.DAPPERKBPerBank,
		Security: SecurityModel{Kind: SecurityDeterministic, GuaranteedTRH: 4,
			Note: "space-saving detection, rate-bounded issuance"},
		Desc: "DAPPER performance-attack-resilient tracker (post-DREAM)",
	})
	registerBuiltin(QPRACScheme(), Descriptor{
		StorageKBPerBank: security.QPRACKBPerBank,
		Security: SecurityModel{Kind: SecurityDeterministic, GuaranteedTRH: 4,
			Note: "in-DRAM PRAC counters, proactive queue service"},
		Desc: "QPRAC priority-queue PRAC (post-DREAM)",
	})
	for _, p := range []tracker.ProbPolicy{tracker.ProbInsert, tracker.ProbReplace, tracker.ProbHybrid} {
		registerBuiltin(ProbScheme(p), Descriptor{
			StorageKBPerBank: security.ProbKBPerBank,
			Security: SecurityModel{Kind: SecurityProbabilistic, GuaranteedTRH: 4,
				Note: fmt.Sprintf("probabilistic %s policy, p=1/8", p)},
			Desc: fmt.Sprintf("probabilistic tracker-management policy (%s)", p),
		})
	}
}

// PostDream renders the equal-storage-budget comparison: the post-DREAM
// trackers (DAPPER, QPRAC, a probabilistic policy) against DREAM-R and
// DREAM-C at each threshold, with every SRAM-bearing tracker sized to
// DREAM-C's Table-6 budget. Options.ExtraSchemes appends any registered
// scheme — including user-registered trackers — as extra comparison columns.
func PostDream(o Options) error {
	schemes := []Scheme{
		DreamRMINT(true, false),
		DreamC(dreamcore.GroupRandomized, 1, false),
		DAPPERScheme(),
		QPRACScheme(),
		ProbScheme(tracker.ProbHybrid),
	}
	for _, name := range o.ExtraSchemes {
		sc, ok := SchemeByName(name)
		if !ok {
			return fmt.Errorf("unknown scheme %q (see -list-schemes)", name)
		}
		schemes = append(schemes, sc)
	}
	names := schemeNames(schemes)
	wls := o.workloads()
	trhs := []int{500, 1000, 2000}
	if o.Quick {
		trhs = []int{1000}
	}

	rows := slowdownSweep(o, wls, trhs, 8, schemes, o.counterAccesses())
	t, err := averageTable("Post-DREAM comparison: average slowdown at equal storage budget",
		names, wls, names, rows)
	fmt.Fprintln(o.out(), t.String())

	// The budget table: measured controller SRAM per bank (from the
	// simulated mitigators' StorageBits of the first workload that ran)
	// next to the analytic DREAM-C budget each was sized against.
	st := stats.Table{Title: "Post-DREAM comparison: measured KB/bank (budget = DREAM-C Table 6)",
		Columns: append([]string{"T_RH", "budget"}, names...)}
	for _, r := range rows {
		row := []string{fmt.Sprintf("%d", r.trh), fmt.Sprintf("%.2f", security.DreamCKBPerBank(r.trh, 1))}
		for _, n := range names {
			cell := "FAIL"
			for _, wl := range wls {
				if res, ok := r.raw[wl][n]; ok {
					cell = fmt.Sprintf("%.2f", float64(res.StorageBits)/8/1024/float64(security.BanksPerSubChannel))
					break
				}
			}
			row = append(row, cell)
		}
		st.AddRow(row...)
	}
	fmt.Fprintln(o.out(), st.String())
	return err
}
