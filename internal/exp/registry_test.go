package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/memctrl"
)

// builtinRoster is the scheme namespace as it stood before the public
// registry existed (the hard-coded constructor map). The registry must keep
// resolving every one of these names: campaign cells travel by name, the
// mitigated-run cache keys on name, and a rename silently orphans both.
var builtinRoster = []string{
	"abacus", "base",
	"dreamc-randomized", "dreamc-randomized-2x", "dreamc-randomized-2x-rmaq",
	"dreamc-randomized-4x", "dreamc-randomized-4x-rmaq", "dreamc-randomized-rmaq",
	"dreamc-set-assoc", "dreamc-set-assoc-2x", "dreamc-set-assoc-2x-rmaq",
	"dreamc-set-assoc-4x", "dreamc-set-assoc-4x-rmaq", "dreamc-set-assoc-rmaq",
	"graphene-drfmab", "graphene-drfmsb", "graphene-nrr",
	"mint-dreamr", "mint-dreamr-drfmab", "mint-dreamr-drfmsb",
	"mint-dreamr-noatm", "mint-dreamr-noatm-rmaq", "mint-dreamr-rmaq",
	"mint-drfmab", "mint-drfmsb", "mint-nrr",
	"moat",
	"para-dreamr", "para-dreamr-noatm",
	"para-drfmab", "para-drfmsb", "para-nrr",
}

func TestBuiltinRosterGolden(t *testing.T) {
	names := SchemeNames()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range builtinRoster {
		if !have[want] {
			t.Errorf("builtin scheme %q missing from the registry", want)
		}
	}
	// The baseline is the only roster scheme without a builder (runKey
	// territory); every other builtin has one (mitKey territory).
	for _, n := range builtinRoster {
		sc, ok := SchemeByName(n)
		if !ok {
			continue
		}
		if n == "base" {
			if sc.Build != nil {
				t.Error("base must stay an unbuilt scheme")
			}
			continue
		}
		if sc.Build == nil {
			t.Errorf("scheme %q must be a built scheme", n)
		}
		if (n == "moat") != sc.PRAC && n != "qprac" {
			t.Errorf("scheme %q PRAC=%v, want PRAC only on moat", n, sc.PRAC)
		}
	}
}

// TestPlanHashGolden pins plan hashes across the registry refactor: these
// cells and their hash were captured from the pre-registry scheme map, so a
// registry that changed any roster name (or the hash derivation) fails here
// before it silently orphans every warm cache and cross-shard campaign.
func TestPlanHashGolden(t *testing.T) {
	if g := KeyGeneration(); g != "g1" {
		t.Skipf("golden hash was captured at key generation g1; current is %s", g)
	}
	cells := []CampaignCell{
		{Workload: "mcf", Scheme: "base", TRH: 2000, Cores: 8, Accesses: 40000, Seed: 0xd6ea11},
		{Workload: "mcf", Scheme: "mint-dreamr", TRH: 2000, Cores: 8, Accesses: 40000,
			Seed: 0xd6ea11, WindowScaleBits: 0x3fb0000000000000},
		{Workload: "lbm", Scheme: "dreamc-randomized-2x", TRH: 500, Cores: 8, Accesses: 160000,
			Seed: 0xd6ea11, WindowScaleBits: 0x3fa5555555555555},
		{MixSeed: 3, Workload: "mix3", Scheme: "moat", TRH: 1000, Cores: 8, Accesses: 160000, Seed: 7},
	}
	const want = "f1a7b3e089f351c42afb6058717e8e91"
	if got := PlanHash(cells); got != want {
		t.Fatalf("golden plan hash changed: got %s want %s", got, want)
	}
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Errorf("golden cell %s no longer validates: %v", c.Key(), err)
		}
	}
}

func TestSchemeNameValidation(t *testing.T) {
	d := Descriptor{Build: func(Env, int) (memctrl.Mitigator, error) { return memctrl.None{}, nil }}
	for _, bad := range []string{
		"", "UPPER", "has space", "trailing-", "-leading", "double--dash",
		"dots.are.bad", "under_score", strings.Repeat("x", 65),
	} {
		if err := Register(bad, d); err == nil {
			t.Errorf("Register(%q) accepted an invalid name", bad)
		}
	}
	for _, good := range []string{"x", "a-1", "my-tracker-v2"} {
		if err := validSchemeName(good); err != nil {
			t.Errorf("validSchemeName(%q) = %v, want nil", good, err)
		}
	}
}

func TestRegisterDuplicate(t *testing.T) {
	d := Descriptor{Build: func(Env, int) (memctrl.Mitigator, error) { return memctrl.None{}, nil }}
	if err := Register("registry-test-dup", d); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	if err := Register("registry-test-dup", d); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	// The built-in roster is registered at init, so user registrations can
	// never shadow it.
	if err := Register("mint-dreamr", d); err == nil {
		t.Fatal("registration over a builtin accepted")
	}
}

func TestRegisterConcurrent(t *testing.T) {
	d := Descriptor{Build: func(Env, int) (memctrl.Mitigator, error) { return memctrl.None{}, nil }}
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half race on one name, half register distinct names; readers
			// run concurrently throughout.
			if i%2 == 0 {
				errs[i] = Register("registry-test-race", d)
			} else {
				errs[i] = Register(fmt.Sprintf("registry-test-conc-%d", i), d)
			}
			SchemeByName("registry-test-race")
			SchemeNames()
		}(i)
	}
	wg.Wait()
	var raceWins int
	for i := 0; i < n; i += 2 {
		if errs[i] == nil {
			raceWins++
		}
	}
	if raceWins != 1 {
		t.Errorf("racing registrations of one name: %d succeeded, want exactly 1", raceWins)
	}
	for i := 1; i < n; i += 2 {
		if errs[i] != nil {
			t.Errorf("distinct concurrent registration %d failed: %v", i, errs[i])
		}
	}
}

func TestRegisteredSchemeIsCampaignable(t *testing.T) {
	err := Register("registry-test-campaign", Descriptor{
		Build: func(Env, int) (memctrl.Mitigator, error) { return memctrl.None{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := CampaignCell{Workload: "mcf", Scheme: "registry-test-campaign",
		TRH: 1000, Cores: 8, Accesses: 1000, Seed: 1}
	if err := cell.Validate(); err != nil {
		t.Fatalf("registered scheme fails cell validation: %v", err)
	}
	sc, ok := SchemeByName("registry-test-campaign")
	if !ok || sc.Build == nil {
		t.Fatalf("registered scheme should resolve with its Build; got ok=%v built=%v", ok, sc.Build != nil)
	}
}

func TestSchemeMetas(t *testing.T) {
	metas := SchemeMetas()
	if !sort.SliceIsSorted(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name }) {
		t.Error("SchemeMetas not sorted by name")
	}
	byName := make(map[string]SchemeMeta, len(metas))
	for _, m := range metas {
		byName[m.Name] = m
	}
	g, ok := byName["graphene-nrr"]
	if !ok {
		t.Fatal("graphene-nrr missing from metas")
	}
	if !g.Builtin || g.Sec.Kind != SecurityDeterministic {
		t.Errorf("graphene-nrr meta: builtin=%v kind=%s", g.Builtin, g.Sec.Kind)
	}
	kb, ok := g.StorageKBPerBank["1000"]
	if !ok || kb <= 0 {
		t.Errorf("graphene-nrr storage at 1000 = %v (present=%v), want > 0", kb, ok)
	}
	if m := byName["moat"]; !m.PRAC {
		t.Error("moat meta must declare PRAC")
	}
	if m := byName["base"]; m.Sec.Kind != SecurityNone {
		t.Errorf("base security kind = %s, want none", m.Sec.Kind)
	}
	for _, name := range []string{"dapper", "qprac", "prob-insert", "prob-replace", "prob-hybrid"} {
		m, ok := byName[name]
		if !ok {
			t.Errorf("post-DREAM scheme %q missing from metas", name)
			continue
		}
		if m.StorageKBPerBank == nil {
			t.Errorf("%s declares no storage accounting", name)
		}
	}
	// Equal-budget sizing: DAPPER and the prob family must not exceed the
	// DREAM-C budget they are sized against, at any reference threshold.
	dc := byName["dreamc-randomized"]
	for _, trh := range StorageRefTRHs {
		key := fmt.Sprintf("%d", trh)
		budget := dc.StorageKBPerBank[key]
		for _, name := range []string{"dapper", "prob-hybrid"} {
			if got := byName[name].StorageKBPerBank[key]; got > budget+1e-9 {
				t.Errorf("%s at trh=%d uses %.3f KB/bank, over the DREAM-C budget %.3f", name, trh, got, budget)
			}
		}
	}
}

func TestPostDreamSchemesBuild(t *testing.T) {
	env := Env{TRH: 1000, Banks: 32, RowsPerBank: 128 * 1024, ResetPeriod: 256,
		ScaledTTH: func(v int) uint32 {
			s := uint32(float64(v) / 16)
			if s < 2 {
				s = 2
			}
			return s
		}, Seed: 1}
	for _, name := range []string{"dapper", "qprac", "prob-insert", "prob-replace", "prob-hybrid"} {
		sc, ok := SchemeByName(name)
		if !ok {
			t.Fatalf("scheme %q not registered", name)
		}
		m, err := sc.Build(env, 0)
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		if m.StorageBits() < 0 {
			t.Errorf("%s reports negative storage", name)
		}
		if math.IsNaN(float64(m.StorageBits())) {
			t.Errorf("%s storage NaN", name)
		}
	}
}
