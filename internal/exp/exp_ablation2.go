package exp

import (
	"fmt"

	dreamcore "repro/internal/core"
	"repro/internal/memctrl"
)

// dreamRMINTKind builds DREAM-R (MINT) over an explicit DRFM flavour.
func dreamRMINTKind(kind dreamcore.DRFMKind) Scheme {
	return Scheme{
		Name: fmt.Sprintf("mint-dreamr-%s", lower(kind.String())),
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return dreamcore.NewDreamRMINT(dreamcore.DreamRMINTConfig{
				TRH:    env.TRH,
				Banks:  env.Banks,
				Kind:   kind,
				UseATM: true,
			}, env.RNG(sub))
		},
	}
}

// AblationDRFMKind contrasts DREAM-R delaying DRFMsb (8-bank stall, RLP up
// to 8) against DRFMab (32-bank stall, RLP up to 32). The paper uses DRFMsb
// for DREAM-R (§4: the stronger baseline); this ablation shows the
// trade-off: DRFMab needs ~4x fewer commands but each stalls the whole
// sub-channel 280 ns.
func AblationDRFMKind(o Options) error {
	schemes := []Scheme{
		dreamRMINTKind(dreamcore.DRFMsb),
		dreamRMINTKind(dreamcore.DRFMab),
	}
	wls := o.workloads()
	slow, raw, err := slowdownGrid(o, wls, 2000, 8, schemes)
	printSlowdownTable(o.out(), "Ablation: DREAM-R over DRFMsb vs DRFMab (MINT, T_RH=2K)",
		wls, schemeNames(schemes), slow)
	printDRFMCounts(o.out(), "Ablation: command counts and RLP", "avg RLP", wls, schemes, raw)
	return err
}
