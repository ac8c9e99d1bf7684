// Package datagen generates the synthetic stand-ins for the seven data
// sets of the TransER paper (DESIGN.md Section 1.4). Each generator is
// seeded and deterministic and emits two databases (the two sides of an
// ER domain) whose records carry ground-truth entity identifiers.
//
// The generators control the three distributional properties the paper
// identifies as the challenges of TL for ER:
//
//   - marginal shift: the two domains of a transfer pair use different
//     corruption profiles, so P(X^S) != P(X^T);
//   - class-conditional conflicts: "confusable sibling" entities share
//     most attribute values with a true entity (extended versions of a
//     paper, re-releases of a song, later children of the same
//     parents), producing near-identical feature vectors with opposite
//     labels — the Ambiguous columns of Table 1;
//   - imbalance and bi-modality: blocking admits many more non-matches
//     than matches, and corruption spreads match similarities below
//     1.0, giving the two-peak distributions of Figure 2.
package datagen

import (
	"fmt"
	"math/rand"
	"strconv"

	"transer/internal/dataset"
	"transer/internal/seeded"
)

// Kind selects the domain template (schema + entity model).
type Kind int

const (
	// Bibliographic is the 4-attribute publication domain
	// (DBLP/ACM/Scholar-like).
	Bibliographic Kind = iota
	// Music is the 5-attribute song domain (MSD/Musicbrainz-like).
	Music
	// DemographicBpDp is the 8-attribute certificate domain linking
	// birth parents to death parents (IOS/KIL Bp-Dp-like).
	DemographicBpDp
	// DemographicBpBp is the 11-attribute certificate domain linking
	// birth parents across two birth certificates (IOS/KIL Bp-Bp-like).
	DemographicBpBp
)

// NoiseProfile parameterises one database side's corruption model.
type NoiseProfile struct {
	// Rate is the per-value probability of character-level corruption.
	Rate float64
	// MissRate is the per-value probability of a missing value.
	MissRate float64
	// AbbrevRate is the per-value probability of token abbreviation.
	AbbrevRate float64
	// FormatShiftRate is the per-value probability of a systematic
	// representation change (name order reversal, edition suffixes) —
	// the marginal-shift knob between domains.
	FormatShiftRate float64
}

// VocabProfile controls how rich each vocabulary pool is for a domain,
// as a fraction of the full list (0 means 1.0 = full richness). A
// restricted pool models small, isolated populations — on the real
// Isle of Skye a handful of clan surnames and crofting occupations
// dominate the certificates — which strips those attributes of
// discriminative power and shifts the class conditional distribution
// P(Y|X) relative to richer domains.
type VocabProfile struct {
	Surnames, FirstNames, Occupations, Streets, Parishes float64
}

func fracOf(n int, f float64) int {
	if f <= 0 || f >= 1 {
		return n
	}
	k := int(float64(n) * f)
	if k < 3 {
		k = 3
	}
	return k
}

// vocabSet is a domain's concrete vocabulary pools.
type vocabSet struct {
	first, sur, occ, street, parish []string
}

func newVocabSet(p VocabProfile, rng *rand.Rand) *vocabSet {
	sub := func(list []string, f float64) []string {
		k := fracOf(len(list), f)
		if k >= len(list) {
			return list
		}
		idx := rng.Perm(len(list))[:k]
		out := make([]string, k)
		for i, j := range idx {
			out[i] = list[j]
		}
		return out
	}
	return &vocabSet{
		first:  sub(firstNames, p.FirstNames),
		sur:    sub(surnameBases, p.Surnames),
		occ:    sub(occupations, p.Occupations),
		street: sub(streetNames, p.Streets),
		parish: sub(parishes, p.Parishes),
	}
}

func (v *vocabSet) personName(rng *rand.Rand) (first, surname string) {
	first = pick(rng, v.first)
	if rng.Float64() < 0.5 {
		first += " " + pick(rng, v.first)
	}
	surname = pick(rng, v.sur) + pick(rng, surnameSuffixes)
	return first, surname
}

// Spec fully describes one generated domain (a pair of databases).
type Spec struct {
	// Name prefixes the generated database names ("<Name>-A"/"-B").
	Name string
	// Kind selects the schema and entity model.
	Kind Kind
	// Seed drives all randomness; equal specs generate equal data.
	Seed int64
	// NumEntities is the size of the underlying entity universe.
	NumEntities int
	// FracA and FracB are the probabilities that an entity appears in
	// database A and B respectively; entities drawn for both sides
	// become true matches.
	FracA, FracB float64
	// AmbiguityFrac is the fraction of entities that receive a
	// confusable sibling entity (a distinct entity sharing most
	// attribute values).
	AmbiguityFrac float64
	// NoiseA and NoiseB are the corruption profiles of the two sides.
	NoiseA, NoiseB NoiseProfile
	// Vocab restricts the vocabulary pools (zero value = full pools).
	Vocab VocabProfile
}

// entityModel abstracts the per-kind schema and value generation.
type entityModel interface {
	schema() dataset.Schema
	// newEntity draws the canonical attribute values of a new entity.
	newEntity(rng *rand.Rand, serial int) []string
	// sibling derives a confusable but distinct entity from vals.
	sibling(rng *rand.Rand, vals []string) []string
}

func modelFor(kind Kind, vocab *vocabSet) entityModel {
	switch kind {
	case Bibliographic:
		return bibModel{}
	case Music:
		return musicModel{}
	case DemographicBpDp:
		return demogModel{wide: false, vocab: vocab}
	case DemographicBpBp:
		return demogModel{wide: true, vocab: vocab}
	}
	panic(fmt.Sprintf("datagen: unknown kind %d", int(kind)))
}

// Generate produces the two databases of the specified domain.
func Generate(spec Spec) (a, b *dataset.Database) {
	if spec.NumEntities <= 0 {
		panic("datagen: NumEntities must be positive")
	}
	rng := seeded.New(spec.Seed)
	model := modelFor(spec.Kind, newVocabSet(spec.Vocab, rng))
	sch := model.schema()

	// Entity universe, with confusable siblings appended.
	type entity struct {
		id   string
		vals []string
	}
	entities := make([]entity, 0, spec.NumEntities*2)
	for i := 0; i < spec.NumEntities; i++ {
		vals := model.newEntity(rng, i)
		entities = append(entities, entity{id: fmt.Sprintf("e%d", i), vals: vals})
		if rng.Float64() < spec.AmbiguityFrac {
			entities = append(entities, entity{
				id:   fmt.Sprintf("e%d-sib", i),
				vals: model.sibling(rng, vals),
			})
		}
	}

	a = &dataset.Database{Name: spec.Name + "-A", Schema: sch}
	b = &dataset.Database{Name: spec.Name + "-B", Schema: sch}
	corA := &corruptor{rng: rng, rate: spec.NoiseA.Rate, missRate: spec.NoiseA.MissRate, abbrevRate: spec.NoiseA.AbbrevRate, formatShiftRate: spec.NoiseA.FormatShiftRate}
	corB := &corruptor{rng: rng, rate: spec.NoiseB.Rate, missRate: spec.NoiseB.MissRate, abbrevRate: spec.NoiseB.AbbrevRate, formatShiftRate: spec.NoiseB.FormatShiftRate}

	emit := func(db *dataset.Database, cor *corruptor, ent entity, side string) {
		vals := make([]string, len(ent.vals))
		for j, v := range ent.vals {
			switch sch.Attributes[j].Type {
			case dataset.AttrYear:
				vals[j] = cor.corruptYear(v)
			case dataset.AttrNumeric:
				vals[j] = cor.corruptNumeric(v)
			case dataset.AttrName:
				vals[j] = cor.corruptString(v, true)
			default:
				vals[j] = cor.corruptString(v, false)
			}
		}
		db.Records = append(db.Records, dataset.Record{
			ID:       side + "-" + ent.id,
			EntityID: ent.id,
			Values:   vals,
		})
	}

	for _, ent := range entities {
		inA := rng.Float64() < spec.FracA
		inB := rng.Float64() < spec.FracB
		if inA {
			emit(a, corA, ent, "a")
		}
		if inB {
			emit(b, corB, ent, "b")
		}
	}
	return a, b
}

// --- bibliographic -------------------------------------------------------

type bibModel struct{}

func (bibModel) schema() dataset.Schema {
	return dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "title", Type: dataset.AttrText},
		{Name: "authors", Type: dataset.AttrName},
		{Name: "venue", Type: dataset.AttrText},
		{Name: "year", Type: dataset.AttrYear},
	}}
}

func (bibModel) newEntity(rng *rand.Rand, serial int) []string {
	venue := pick(rng, venues)
	if long, ok := venueLong[venue]; ok && rng.Float64() < 0.3 {
		venue = long
	}
	return []string{
		paperTitle(rng, serial),
		authorList(rng),
		venue,
		strconv.Itoa(1995 + rng.Intn(26)),
	}
}

// sibling models an extended/companion version of a paper: same author
// group and venue family, near-identical title, adjacent year. Such
// pairs generate near-match feature vectors labelled non-match.
func (bibModel) sibling(rng *rand.Rand, vals []string) []string {
	out := append([]string(nil), vals...)
	switch rng.Intn(3) {
	case 0:
		out[0] = vals[0] + " extended"
	case 1:
		out[0] = vals[0] + " revisited"
	default:
		out[0] = "on " + vals[0]
	}
	y, _ := strconv.Atoi(vals[3])
	out[3] = strconv.Itoa(y + 1)
	return out
}

// --- music ---------------------------------------------------------------

type musicModel struct{}

func (musicModel) schema() dataset.Schema {
	return dataset.Schema{Attributes: []dataset.Attribute{
		{Name: "title", Type: dataset.AttrText},
		{Name: "album", Type: dataset.AttrText},
		{Name: "artist", Type: dataset.AttrName},
		{Name: "year", Type: dataset.AttrYear},
		{Name: "length", Type: dataset.AttrNumeric},
	}}
}

func (musicModel) newEntity(rng *rand.Rand, serial int) []string {
	title := songTitle(rng, serial)
	return []string{
		title,
		albumName(rng, title),
		artistName(rng),
		strconv.Itoa(1965 + rng.Intn(56)),
		strconv.FormatFloat(120+rng.Float64()*240, 'f', 1, 64),
	}
}

// sibling models a re-release/remix: identical title and artist,
// different album, same or adjacent year, near-identical length — the
// paper's "non e francesca" Musicbrainz example. Crucially the sibling
// overlaps the distribution of corrupted true matches on every
// feature, so its feature vectors are genuinely ambiguous (both class
// labels occur for the same vector region, Table 1's Ambiguous
// columns) rather than separable by a single attribute.
func (musicModel) sibling(rng *rand.Rand, vals []string) []string {
	out := append([]string(nil), vals...)
	out[1] = albumName(rng, vals[0])
	if out[1] == vals[1] {
		out[1] = vals[1] + " " + pick(rng, albumWords)
	}
	if rng.Float64() < 0.6 {
		y, _ := strconv.Atoi(vals[3])
		out[3] = strconv.Itoa(y + 1)
	}
	l, _ := strconv.ParseFloat(vals[4], 64)
	out[4] = strconv.FormatFloat(l+2+rng.Float64()*10, 'f', 1, 64)
	return out
}

// --- demographic ---------------------------------------------------------

type demogModel struct {
	// wide selects the 11-attribute Bp-Bp schema; false gives the
	// 8-attribute Bp-Dp schema.
	wide bool
	// vocab is the domain's (possibly restricted) vocabulary pools.
	vocab *vocabSet
}

func (m demogModel) schema() dataset.Schema {
	attrs := []dataset.Attribute{
		{Name: "father_fname", Type: dataset.AttrName},
		{Name: "father_sname", Type: dataset.AttrName},
		{Name: "mother_fname", Type: dataset.AttrName},
		{Name: "mother_msname", Type: dataset.AttrName},
		{Name: "father_occupation", Type: dataset.AttrText},
		{Name: "address", Type: dataset.AttrText},
		{Name: "parish", Type: dataset.AttrCode},
		{Name: "event_year", Type: dataset.AttrYear},
	}
	if m.wide {
		attrs = append(attrs,
			dataset.Attribute{Name: "father_fname2", Type: dataset.AttrName},
			dataset.Attribute{Name: "mother_fname2", Type: dataset.AttrName},
			dataset.Attribute{Name: "marriage_year", Type: dataset.AttrYear},
		)
	}
	return dataset.Schema{Attributes: attrs}
}

func (m demogModel) newEntity(rng *rand.Rand, serial int) []string {
	ff, fs := m.vocab.personName(rng)
	mf, _ := m.vocab.personName(rng)
	_, ms := m.vocab.personName(rng)
	vals := []string{
		ff, fs, mf, ms,
		pick(rng, m.vocab.occ),
		fmt.Sprintf("%d %s", 1+rng.Intn(120), pick(rng, m.vocab.street)),
		pick(rng, m.vocab.parish),
		strconv.Itoa(1860 + rng.Intn(42)),
	}
	if m.wide {
		// Secondary given names and the parents' marriage year add the
		// extra Bp-Bp evidence the real certificates carry.
		vals = append(vals,
			pick(rng, m.vocab.first),
			pick(rng, m.vocab.first),
			strconv.Itoa(1855+rng.Intn(40)),
		)
	}
	return vals
}

// sibling models a later child of the same parents: identical parent
// names (the compared attributes), same address/parish, same or
// adjacent event year (twins and year-apart births are common in the
// period) — the canonical conflicting-label case in certificate
// linkage. Because true matches also carry year transcription slips,
// sibling vectors and match vectors occupy the same feature region:
// genuinely ambiguous, exactly as the Scottish data's 58-80%
// ambiguous-vector fractions in Table 1.
func (m demogModel) sibling(rng *rand.Rand, vals []string) []string {
	out := append([]string(nil), vals...)
	if rng.Float64() < 0.65 {
		y, _ := strconv.Atoi(vals[7])
		out[7] = strconv.Itoa(y + 1 + rng.Intn(2))
	}
	if rng.Float64() < 0.15 {
		// Occasionally the family has moved between events.
		out[5] = fmt.Sprintf("%d %s", 1+rng.Intn(120), pick(rng, m.vocab.street))
	}
	return out
}
