package datagen

import (
	"transer/internal/blocking"
	"transer/internal/dataset"
)

// DomainPair is one ER domain: the two databases to link plus the
// ground-truth match set between them.
type DomainPair struct {
	Name string
	A, B *dataset.Database
	// Blocking is the recommended MinHash-LSH configuration for this
	// domain (zero value = package defaults). Domain-appropriate
	// blocking — parent names with a tighter threshold for
	// certificates, title+artist for songs — mirrors standard ER
	// practice and keeps the candidate class skew in the range the
	// paper's Table 1 reports.
	Blocking blocking.MinHashConfig
}

// Truth returns the ground-truth match pair set of the domain.
func (d DomainPair) Truth() dataset.PairSet { return dataset.GroundTruth(d.A, d.B) }

// scaleN scales a base entity count, keeping at least a workable
// minimum so tiny test scales still produce both classes.
func scaleN(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 40 {
		n = 40
	}
	return n
}

// The seven data set stand-ins below mirror the paper's Table 1 pairs.
// Relative sizes follow the paper's ordering (bibliographic smallest,
// demographic largest); noise and ambiguity knobs are chosen so that
// the Table 1 shape (clean DBLP-ACM, dirty Scholar, highly ambiguous
// Musicbrainz, large ambiguous certificate data) is reproduced.

// DBLPACM is the clean bibliographic pair (simple scenario, low noise,
// low ambiguity).
func DBLPACM(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "dblp-acm", Kind: Bibliographic, Seed: 101,
		NumEntities: scaleN(700, scale), FracA: 0.85, FracB: 0.80,
		AmbiguityFrac: 0.04,
		NoiseA:        NoiseProfile{Rate: 0.08, MissRate: 0.01, AbbrevRate: 0.02},
		NoiseB:        NoiseProfile{Rate: 0.10, MissRate: 0.01, AbbrevRate: 0.03},
	})
	return DomainPair{Name: "DBLP-ACM", A: a, B: b}
}

// DBLPScholar is the dirty bibliographic pair: the B side models
// Google-Scholar-style scraped records with abbreviations, missing
// values, and frequent typos.
func DBLPScholar(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "dblp-scholar", Kind: Bibliographic, Seed: 202,
		NumEntities: scaleN(1400, scale), FracA: 0.75, FracB: 0.85,
		AmbiguityFrac: 0.05,
		NoiseA:        NoiseProfile{Rate: 0.08, MissRate: 0.01, AbbrevRate: 0.02},
		NoiseB:        NoiseProfile{Rate: 0.30, MissRate: 0.06, AbbrevRate: 0.25, FormatShiftRate: 0.15},
	})
	return DomainPair{Name: "DBLP-Scholar", A: a, B: b}
}

// MSD is the Million-Songs-like music pair: moderate noise, moderate
// ambiguity.
func MSD(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "msd", Kind: Music, Seed: 303,
		NumEntities: scaleN(1800, scale), FracA: 0.80, FracB: 0.80,
		AmbiguityFrac: 0.08,
		NoiseA:        NoiseProfile{Rate: 0.08, MissRate: 0.01, AbbrevRate: 0.02},
		NoiseB:        NoiseProfile{Rate: 0.10, MissRate: 0.01, AbbrevRate: 0.03},
	})
	return DomainPair{Name: "MSD", A: a, B: b, Blocking: musicBlocking}
}

// MB is the Musicbrainz-like music pair: the most ambiguous data set
// (many re-releases/remixes — conflicting labels for identical feature
// vectors), mirroring the 22% ambiguous fraction of Table 1.
func MB(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "mb", Kind: Music, Seed: 404,
		NumEntities: scaleN(3200, scale), FracA: 0.80, FracB: 0.85,
		AmbiguityFrac: 0.45,
		NoiseA:        NoiseProfile{Rate: 0.28, MissRate: 0.10, AbbrevRate: 0.04, FormatShiftRate: 0.05},
		NoiseB:        NoiseProfile{Rate: 0.32, MissRate: 0.12, AbbrevRate: 0.05, FormatShiftRate: 0.20},
	})
	return DomainPair{Name: "MB", A: a, B: b, Blocking: musicBlocking}
}

// IOSBpDp is the smaller (Isle of Skye) 8-attribute certificate pair.
func IOSBpDp(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "ios-bpdp", Kind: DemographicBpDp, Seed: 505,
		NumEntities: scaleN(4200, scale), FracA: 0.75, FracB: 0.80,
		AmbiguityFrac: 0.12,
		Vocab:         iosVocab,
		NoiseA:        NoiseProfile{Rate: 0.14, MissRate: 0.02, AbbrevRate: 0.03},
		NoiseB:        NoiseProfile{Rate: 0.17, MissRate: 0.03, AbbrevRate: 0.04},
	})
	return DomainPair{Name: "IOS-Bp-Dp", A: a, B: b, Blocking: demogBlocking}
}

// KILBpDp is the larger (Kilmarnock) 8-attribute certificate pair with
// a different noise profile (marginal shift against IOS).
func KILBpDp(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "kil-bpdp", Kind: DemographicBpDp, Seed: 606,
		NumEntities: scaleN(7000, scale), FracA: 0.80, FracB: 0.85,
		AmbiguityFrac: 0.45,
		NoiseA:        NoiseProfile{Rate: 0.19, MissRate: 0.04, AbbrevRate: 0.05, FormatShiftRate: 0.05},
		NoiseB:        NoiseProfile{Rate: 0.22, MissRate: 0.06, AbbrevRate: 0.06, FormatShiftRate: 0.15},
	})
	return DomainPair{Name: "KIL-Bp-Dp", A: a, B: b, Blocking: demogBlocking}
}

// IOSBpBp is the 11-attribute Isle-of-Skye birth-birth pair.
func IOSBpBp(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "ios-bpbp", Kind: DemographicBpBp, Seed: 707,
		NumEntities: scaleN(5200, scale), FracA: 0.80, FracB: 0.80,
		AmbiguityFrac: 0.12,
		Vocab:         iosVocab,
		NoiseA:        NoiseProfile{Rate: 0.15, MissRate: 0.02, AbbrevRate: 0.03},
		NoiseB:        NoiseProfile{Rate: 0.17, MissRate: 0.03, AbbrevRate: 0.04},
	})
	return DomainPair{Name: "IOS-Bp-Bp", A: a, B: b, Blocking: demogBlocking}
}

// KILBpBp is the largest pair: the 11-attribute Kilmarnock birth-birth
// certificates.
func KILBpBp(scale float64) DomainPair {
	a, b := Generate(Spec{
		Name: "kil-bpbp", Kind: DemographicBpBp, Seed: 808,
		NumEntities: scaleN(8400, scale), FracA: 0.82, FracB: 0.85,
		AmbiguityFrac: 0.40,
		NoiseA:        NoiseProfile{Rate: 0.20, MissRate: 0.04, AbbrevRate: 0.05, FormatShiftRate: 0.05},
		NoiseB:        NoiseProfile{Rate: 0.23, MissRate: 0.06, AbbrevRate: 0.06, FormatShiftRate: 0.12},
	})
	return DomainPair{Name: "KIL-Bp-Bp", A: a, B: b, Blocking: demogBlocking}
}

// iosVocab models the Isle of Skye's small isolated population: a
// handful of clan surnames, crofting occupations and island parishes
// dominate, stripping those attributes of discriminative power
// relative to the larger town of Kilmarnock — a class-conditional
// difference between the two demographic domains.
var iosVocab = VocabProfile{
	Surnames: 0.6, FirstNames: 0.8, Occupations: 0.5, Streets: 0.8, Parishes: 0.6,
}

// demogBlocking shingles the four parent-name attributes with a
// tighter LSH threshold (r = 4, ≈0.5 Jaccard): certificate linkage
// blocks on parent names, and the name vocabulary's natural collisions
// already supply the non-match candidates. musicBlocking shingles
// title and artist at the default threshold.
var (
	demogBlocking = blocking.MinHashConfig{NumHashes: 60, Bands: 12, Attrs: []int{0, 1, 2, 3}}
	musicBlocking = blocking.MinHashConfig{Attrs: []int{0, 2}}
)

// Builtin describes one built-in data set stand-in: its stable
// identity (the DomainPair.Name its generator produces), the fixed
// generator seed baked into its Spec, and the generator itself. Key,
// seed and scale together are the pipeline store's cache key.
type Builtin struct {
	Key  string
	Seed int64
	Make func(scale float64) DomainPair
}

// Generate runs the generator: a pure function of (Builtin, scale).
func (b Builtin) Generate(scale float64) DomainPair { return b.Make(scale) }

// Builtins returns the eight data set stand-ins in Table 1 order.
func Builtins() []Builtin {
	return []Builtin{
		{"DBLP-ACM", 101, DBLPACM},
		{"DBLP-Scholar", 202, DBLPScholar},
		{"MSD", 303, MSD},
		{"MB", 404, MB},
		{"IOS-Bp-Dp", 505, IOSBpDp},
		{"KIL-Bp-Dp", 606, KILBpDp},
		{"IOS-Bp-Bp", 707, IOSBpBp},
		{"KIL-Bp-Bp", 808, KILBpBp},
	}
}

// BuiltinByKey looks a built-in dataset up by its key.
func BuiltinByKey(key string) (Builtin, bool) {
	for _, b := range Builtins() {
		if b.Key == key {
			return b, true
		}
	}
	return Builtin{}, false
}

// TransferTask is one source→target row of the paper's Tables 2 and 3.
type TransferTask struct {
	Source, Target DomainPair
}

// Name formats the task as "source → target".
func (t TransferTask) Name() string { return t.Source.Name + " -> " + t.Target.Name }

// PaperTaskKeys returns the eight source→target dataset key pairs of
// the paper's Table 2. This is the single definition of the task
// grid; PaperTasks and the pipeline package's task refs derive from
// it.
func PaperTaskKeys() [][2]string {
	return [][2]string{
		{"DBLP-ACM", "DBLP-Scholar"},
		{"DBLP-Scholar", "DBLP-ACM"},
		{"MSD", "MB"},
		{"MB", "MSD"},
		{"IOS-Bp-Dp", "KIL-Bp-Dp"},
		{"KIL-Bp-Dp", "IOS-Bp-Dp"},
		{"IOS-Bp-Bp", "KIL-Bp-Bp"},
		{"KIL-Bp-Bp", "IOS-Bp-Bp"},
	}
}

// RepresentativeTaskKeys returns the three source→target dataset key
// pairs used in the paper's Sections 5.2.3-5.4 (one bibliographic,
// one music, one demographic).
func RepresentativeTaskKeys() [][2]string {
	return [][2]string{
		{"DBLP-ACM", "DBLP-Scholar"},
		{"MB", "MSD"},
		{"KIL-Bp-Dp", "IOS-Bp-Dp"},
	}
}

// tasksFromKeys generates each distinct dataset once and assembles the
// keyed task list.
func tasksFromKeys(keys [][2]string, scale float64) []TransferTask {
	pairs := map[string]DomainPair{}
	domain := func(key string) DomainPair {
		if p, ok := pairs[key]; ok {
			return p
		}
		b, ok := BuiltinByKey(key)
		if !ok {
			panic("datagen: unknown built-in dataset " + key)
		}
		p := b.Make(scale)
		pairs[key] = p
		return p
	}
	out := make([]TransferTask, len(keys))
	for i, k := range keys {
		out[i] = TransferTask{Source: domain(k[0]), Target: domain(k[1])}
	}
	return out
}

// PaperTasks returns the eight source→target pairs evaluated in the
// paper's Table 2, at the given size scale.
func PaperTasks(scale float64) []TransferTask {
	return tasksFromKeys(PaperTaskKeys(), scale)
}

// RepresentativeTasks returns the three pairs used in the paper's
// Sections 5.2.3-5.4 (one bibliographic, one music, one demographic).
func RepresentativeTasks(scale float64) []TransferTask {
	return tasksFromKeys(RepresentativeTaskKeys(), scale)
}
