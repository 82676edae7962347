package exp

import (
	"fmt"

	dreamcore "repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/security"
	"repro/internal/tracker"
)

// Baseline is the unprotected configuration.
var Baseline = Scheme{Name: "base"}

// PARAWith returns coupled PARA over the given mitigation interface
// (Figure 4 / §2.6).
func PARAWith(mode tracker.Mode) Scheme {
	return Scheme{
		Name: "para-" + lower(mode.String()),
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewPARA(tracker.PARAProb(env.TRH), mode, env.RNG(sub))
		},
	}
}

// MINTWith returns coupled MINT over the given mitigation interface
// (Figure 6 / §2.6).
func MINTWith(mode tracker.Mode) Scheme {
	return Scheme{
		Name: "mint-" + lower(mode.String()),
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewMINT(tracker.MINTWindow(env.TRH), env.Banks, mode, env.RNG(sub))
		},
	}
}

// DreamRPARA returns DREAM-R over PARA (Listing 1). atm selects Table 4's
// ATM configuration (default) versus the revised-probability variant.
func DreamRPARA(atm bool) Scheme {
	name := "para-dreamr"
	if !atm {
		name += "-noatm"
	}
	return Scheme{
		Name: name,
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return dreamcore.NewDreamRPARA(dreamcore.DreamRPARAConfig{
				TRH:    env.TRH,
				Banks:  env.Banks,
				Kind:   dreamcore.DRFMsb,
				UseATM: atm,
			}, env.RNG(sub))
		},
	}
}

// DreamRMINT returns DREAM-R over MINT (Listing 2), optionally with the §6
// RMAQ rate-limit queues.
func DreamRMINT(atm, rmaq bool) Scheme {
	name := "mint-dreamr"
	if !atm {
		name += "-noatm"
	}
	if rmaq {
		name += "-rmaq"
	}
	return Scheme{
		Name: name,
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return dreamcore.NewDreamRMINT(dreamcore.DreamRMINTConfig{
				TRH:     env.TRH,
				Banks:   env.Banks,
				Kind:    dreamcore.DRFMsb,
				UseATM:  atm,
				UseRMAQ: rmaq,
			}, env.RNG(sub))
		},
	}
}

// GrapheneWith returns the Misra–Gries tracker over a mitigation interface.
func GrapheneWith(mode tracker.Mode) Scheme {
	return Scheme{
		Name: "graphene-" + lower(mode.String()),
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewGraphene(tracker.GrapheneConfig{
				TRH:         env.TRH,
				Banks:       env.Banks,
				Mode:        mode,
				ResetPeriod: env.ResetPeriod,
			})
		},
	}
}

// DreamC returns DREAM-C with the chosen grouping function and an entry
// multiplier (1 = Table 6, 2 = the "2x storage" variant of Figures 17/22).
func DreamC(grouping dreamcore.Grouping, entryMult int, rmaq bool) Scheme {
	name := fmt.Sprintf("dreamc-%s", grouping)
	if entryMult > 1 {
		name = fmt.Sprintf("%s-%dx", name, entryMult)
	}
	if rmaq {
		name += "-rmaq"
	}
	return Scheme{
		Name: name,
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return dreamcore.NewDreamC(dreamcore.DreamCConfig{
				TRH:         env.TRH,
				Banks:       env.Banks,
				RowsPerBank: env.RowsPerBank,
				Grouping:    grouping,
				EntryMult:   entryMult,
				TTHOverride: env.ScaledTTH(env.TRH / 2),
				ResetPeriod: env.ResetPeriod,
				UseRMAQ:     rmaq,
			}, env.RNG(sub))
		},
	}
}

// ABACuS returns the §5.8 comparison tracker.
func ABACuS() Scheme {
	return Scheme{
		Name: "abacus",
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewABACuS(tracker.ABACuSConfig{
				TRH:         env.TRH,
				Banks:       env.Banks,
				Rows:        env.RowsPerBank,
				ResetPeriod: env.ResetPeriod,
				TTHOverride: env.ScaledTTH(env.TRH / 2),
			})
		},
	}
}

// MOAT returns the PRAC-based comparison (§7.1): PRAC timings plus the ABO
// tracker.
func MOAT() Scheme {
	return Scheme{
		Name: "moat",
		PRAC: true,
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return tracker.NewMOAT(tracker.MOATConfig{
				TRH:         env.TRH,
				ResetPeriod: env.ResetPeriod,
			})
		},
	}
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// --- built-in roster registration --------------------------------------------

// registerBuiltin seeds one constructor's product into the registry: the
// Scheme supplies name, builder, and PRAC flag (so the registry entry is
// bit-identical to what the constructor returns), the Descriptor supplies
// the metadata the constructor does not carry.
func registerBuiltin(s Scheme, d Descriptor) {
	d.Build = s.Build
	d.PRAC = s.PRAC
	if err := register(s.Name, d, true); err != nil {
		panic(err)
	}
}

// zeroKB marks schemes whose controller SRAM is deliberately zero (stateless
// samplers, in-DRAM counters) — distinct from nil, which means unaccounted.
func zeroKB(int) float64 { return 0 }

// init registers the built-in roster. Registration happens at package init —
// before any user of this package can call Register — so a third-party
// scheme can never shadow a built-in name, and the roster names (and
// therefore every campaign plan hash) are exactly those the hard-coded map
// produced before the registry existed.
func init() {
	registerBuiltin(Baseline, Descriptor{
		Security: SecurityModel{Kind: SecurityNone},
		Desc:     "unprotected baseline",
	})

	for _, mode := range []tracker.Mode{tracker.ModeNRR, tracker.ModeDRFMsb, tracker.ModeDRFMab} {
		m := lower(mode.String())
		registerBuiltin(PARAWith(mode), Descriptor{
			StorageKBPerBank: zeroKB,
			Security: SecurityModel{Kind: SecurityProbabilistic, GuaranteedTRH: 4,
				Note: "p = 20/T_RH per ACT"},
			Desc: "coupled PARA sampler over " + m,
		})
		registerBuiltin(MINTWith(mode), Descriptor{
			StorageKBPerBank: zeroKB,
			Security: SecurityModel{Kind: SecurityProbabilistic, GuaranteedTRH: 4,
				Note: "one selection per T_RH/20-ACT window"},
			Desc: "coupled MINT sampler over " + m,
		})
		registerBuiltin(GrapheneWith(mode), Descriptor{
			StorageKBPerBank: security.GrapheneKBPerBank,
			Security: SecurityModel{Kind: SecurityDeterministic, GuaranteedTRH: 4,
				Note: "space-saving overestimate"},
			Desc: "Misra-Gries counter tracker over " + m,
		})
	}

	dreamRStorage := func(rmaq bool) func(int) float64 {
		return func(trh int) float64 {
			b := security.ATMBytesPerBank()
			if rmaq {
				b += security.RMAQBytesPerBank(security.MINTWindow(trh))
			}
			return b / 1024
		}
	}
	registerBuiltin(DreamRPARA(true), Descriptor{
		StorageKBPerBank: dreamRStorage(false),
		Security: SecurityModel{Kind: SecurityProbabilistic, GuaranteedTRH: 4,
			Note: "decoupled PARA; ATM covers the DRFM delay"},
		Desc: "DREAM-R over PARA (directed refresh, ATM)",
	})
	registerBuiltin(DreamRPARA(false), Descriptor{
		StorageKBPerBank: zeroKB,
		Security: SecurityModel{Kind: SecurityProbabilistic, GuaranteedTRH: 4,
			Note: "decoupled PARA with revised probability"},
		Desc: "DREAM-R over PARA (revised parameters, no ATM)",
	})
	for _, atm := range []bool{true, false} {
		for _, rmaq := range []bool{true, false} {
			desc := "DREAM-R over MINT"
			if !atm {
				desc += ", revised window"
			}
			if rmaq {
				desc += ", RMAQ rate limit"
			}
			registerBuiltin(DreamRMINT(atm, rmaq), Descriptor{
				StorageKBPerBank: dreamRStorage(rmaq),
				Security: SecurityModel{Kind: SecurityProbabilistic, GuaranteedTRH: 4,
					Note: "decoupled MINT"},
				Desc: desc,
			})
		}
	}
	for _, kind := range []dreamcore.DRFMKind{dreamcore.DRFMsb, dreamcore.DRFMab} {
		registerBuiltin(dreamRMINTKind(kind), Descriptor{
			StorageKBPerBank: dreamRStorage(false),
			Security: SecurityModel{Kind: SecurityProbabilistic, GuaranteedTRH: 4,
				Note: "decoupled MINT"},
			Desc: "DREAM-R over MINT via explicit " + lower(kind.String()),
		})
	}

	for _, g := range []dreamcore.Grouping{dreamcore.GroupSetAssociative, dreamcore.GroupRandomized} {
		for _, mult := range []int{1, 2, 4} {
			for _, rmaq := range []bool{false, true} {
				mult := mult
				desc := fmt.Sprintf("DREAM-C (%s grouping, %dx DCT entries)", g, mult)
				if rmaq {
					desc += " with RMAQ"
				}
				registerBuiltin(DreamC(g, mult, rmaq), Descriptor{
					StorageKBPerBank: func(trh int) float64 { return security.DreamCKBPerBank(trh, mult) },
					Security: SecurityModel{Kind: SecurityDeterministic, GuaranteedTRH: 4,
						Note: "gang counter bounds every group"},
					Desc: desc,
				})
			}
		}
	}

	registerBuiltin(ABACuS(), Descriptor{
		StorageKBPerBank: security.ABACuSKBPerBank,
		Security: SecurityModel{Kind: SecurityDeterministic, GuaranteedTRH: 4,
			Note: "shared row-ID counters"},
		Desc: "ABACuS shared-counter tracker (section 5.8 comparison)",
	})
	registerBuiltin(MOAT(), Descriptor{
		StorageKBPerBank: zeroKB,
		Security: SecurityModel{Kind: SecurityDeterministic, GuaranteedTRH: 4,
			Note: "in-DRAM PRAC counters, ABO backstop"},
		Desc: "MOAT over PRAC timings (section 7.1 comparison)",
	})
}
