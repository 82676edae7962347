package exp

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/memctrl"
)

// The scheme registry is the single namespace every execution path resolves
// mitigation schemes through: figure drivers, the dream facade, campaign
// cells (which travel by name across dreamd shards), and the run cache's
// mitigated-run memoization. Registration is public — any package can add a
// scheme with Register — but admission enforces the purity naming rules that
// make a name a complete content identity:
//
//   - The Build function must be a pure function of (Env, sub): no hidden
//     configuration, no ambient state, no process-local captures that vary
//     between runs or binaries.
//   - The name must bake in every constructor parameter — two binaries that
//     resolve the same name must build behaviorally identical mitigators.
//
// These two rules are what let a registered scheme ride the disk cache
// (mitKey keys on the name) and a /v1/campaign shard (cells carry only the
// name). The registry can enforce the name syntax and uniqueness
// mechanically; functional purity is the registrant's contract, stated here
// because violating it silently poisons the cache and cross-shard merges.

// SecurityKind classifies a scheme's protection guarantee.
type SecurityKind string

// Security kinds.
const (
	// SecurityNone marks an unprotected configuration.
	SecurityNone SecurityKind = "none"
	// SecurityDeterministic marks trackers whose detection guarantee holds
	// for every activation pattern (counter tables, space-saving tables,
	// in-DRAM PRAC counters).
	SecurityDeterministic SecurityKind = "deterministic"
	// SecurityProbabilistic marks sampling trackers whose guarantee is a
	// failure-probability bound (PARA, MINT, probabilistic table policies).
	SecurityProbabilistic SecurityKind = "probabilistic"
)

// SecurityModel declares what a scheme guarantees. It is metadata for
// listings and the /v1/schemes endpoint, not an enforcement mechanism — the
// security experiments (exp: "security") audit the actual behavior.
type SecurityModel struct {
	Kind SecurityKind `json:"kind"`
	// GuaranteedTRH is the lowest double-sided Rowhammer threshold the
	// scheme is designed to protect (0 = unspecified). Deterministic
	// trackers bound every row below it; probabilistic ones meet their
	// stated failure budget at it.
	GuaranteedTRH int `json:"guaranteed_trh,omitempty"`
	// Note is a one-line qualifier ("p = 20/T_RH per ACT", "space-saving
	// overestimate", ...).
	Note string `json:"note,omitempty"`
}

// Descriptor is everything a scheme registers: how to build it, how it
// changes the machine, what it costs, and what it claims.
type Descriptor struct {
	// Build constructs the mitigator for one sub-channel. It must be a pure
	// function of (env, sub) — see the package comment on the purity
	// contract. Required for user registrations; only the built-in baseline
	// registers unbuilt.
	Build func(env Env, sub int) (memctrl.Mitigator, error)
	// PRAC switches the DRAM to PRAC timings (tRP 14→36 ns).
	PRAC bool
	// StorageKBPerBank reports the controller-side SRAM budget per bank at a
	// threshold (analytic, like the paper's Tables 1/6). nil = unaccounted;
	// a function returning 0 = deliberately zero (in-DRAM state).
	StorageKBPerBank func(trh int) float64
	// Security declares the protection model.
	Security SecurityModel
	// Desc is a one-line summary for listings.
	Desc string
}

// registration pairs a descriptor with its provenance; builtin schemes are
// the roster schemes.go seeds at init, everything else arrived through the
// public Register.
type registration struct {
	d       Descriptor
	builtin bool
}

var registry = struct {
	sync.RWMutex
	m map[string]registration
}{m: make(map[string]registration)}

// validSchemeName enforces the name syntax: lowercase alphanumerics and
// single dashes, starting and ending alphanumeric, at most 64 bytes. The
// name is a cache-key and URL component, so the alphabet is deliberately
// narrow.
func validSchemeName(name string) error {
	if name == "" {
		return fmt.Errorf("exp: scheme name is empty")
	}
	if len(name) > 64 {
		return fmt.Errorf("exp: scheme name %q exceeds 64 bytes", name)
	}
	prevDash := true // a leading dash is as invalid as a doubled one
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			prevDash = false
		case c == '-':
			if prevDash {
				return fmt.Errorf("exp: scheme name %q has a leading or doubled dash", name)
			}
			prevDash = true
		default:
			return fmt.Errorf("exp: scheme name %q contains %q (want lowercase alphanumerics and dashes)", name, c)
		}
	}
	if prevDash {
		return fmt.Errorf("exp: scheme name %q ends with a dash", name)
	}
	return nil
}

// Register adds a scheme to the process-wide registry under name, making it
// reachable from the dream facade (Config.Scheme), campaign cells,
// /v1/schemes, and the CLIs. It rejects malformed names and duplicates —
// including collisions with the built-in roster — so a registered name is
// stable for the life of the process. Safe for concurrent use.
func Register(name string, d Descriptor) error {
	return register(name, d, false)
}

// MustRegister is Register for init-time rosters: it panics on error.
func MustRegister(name string, d Descriptor) {
	if err := Register(name, d); err != nil {
		panic(err)
	}
}

func register(name string, d Descriptor, builtin bool) error {
	if err := validSchemeName(name); err != nil {
		return err
	}
	if d.Build == nil && !builtin {
		return fmt.Errorf("exp: scheme %q has no Build function", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("exp: scheme %q already registered", name)
	}
	registry.m[name] = registration{d: d, builtin: builtin}
	return nil
}

// SchemeByName resolves a registered scheme by name ("mint-dreamr",
// "dreamc-randomized-2x", a user-registered tracker, ...). Registration
// enforced that the name is a complete content identity, which is what
// qualifies every registered scheme with a builder for mitigated-run
// memoization.
func SchemeByName(name string) (Scheme, bool) {
	registry.RLock()
	reg, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return Scheme{}, false
	}
	return Scheme{
		Name:  name,
		Build: reg.d.Build,
		PRAC:  reg.d.PRAC,
	}, true
}

// DescriptorFor returns the registered descriptor for name.
func DescriptorFor(name string) (Descriptor, bool) {
	registry.RLock()
	defer registry.RUnlock()
	reg, ok := registry.m[name]
	return reg.d, ok
}

// SchemeNames lists every registered scheme name, sorted.
func SchemeNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StorageRefTRHs are the reference thresholds SchemeMetas evaluates each
// scheme's storage budget at (the paper's Table 1/6 sweep).
var StorageRefTRHs = []int{125, 500, 1000, 2000}

// SchemeMeta is the serializable registry entry: what dreamd's /v1/schemes
// returns and what the CLIs' -list-schemes renders. Storage is evaluated at
// the reference thresholds so a wire consumer needs no code.
type SchemeMeta struct {
	Name    string        `json:"name"`
	Desc    string        `json:"desc,omitempty"`
	PRAC    bool          `json:"prac,omitempty"`
	Builtin bool          `json:"builtin,omitempty"`
	Sec     SecurityModel `json:"security"`
	// StorageKBPerBank maps a reference threshold (decimal string) to the
	// analytic KB/bank budget; absent when the scheme declares none.
	StorageKBPerBank map[string]float64 `json:"storage_kb_per_bank,omitempty"`
}

// SchemeMetas snapshots the registry as serializable metadata, sorted by
// name.
func SchemeMetas() []SchemeMeta {
	registry.RLock()
	regs := make(map[string]registration, len(registry.m))
	for n, r := range registry.m {
		regs[n] = r
	}
	registry.RUnlock()

	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	sort.Strings(names)

	metas := make([]SchemeMeta, 0, len(names))
	for _, n := range names {
		reg := regs[n]
		m := SchemeMeta{
			Name:    n,
			Desc:    reg.d.Desc,
			PRAC:    reg.d.PRAC,
			Builtin: reg.builtin,
			Sec:     reg.d.Security,
		}
		if f := reg.d.StorageKBPerBank; f != nil {
			m.StorageKBPerBank = make(map[string]float64, len(StorageRefTRHs))
			for _, trh := range StorageRefTRHs {
				m.StorageKBPerBank[strconv.Itoa(trh)] = f(trh)
			}
		}
		metas = append(metas, m)
	}
	return metas
}
