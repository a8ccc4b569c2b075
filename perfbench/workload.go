package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/lubm"
	"repro/internal/rdf"
)

// dataSeed is refserve's -seed: the LUBM(1) graph every workload runs
// over. It is fixed so that runs with different workload seeds measure
// the same ~69K-triple graph; the workload seed varies the requests.
const dataSeed = 42

// workload is one traffic mix. why records the reason it was chosen.
type workload struct {
	name     string
	why      string
	strategy string // strategy of every read
	writes   bool   // read-write: durable data dir, update cycles, restarts
}

var workloads = []workload{
	{
		name:     "warm-gcov",
		strategy: "ref-gcov",
		why: "LUBM Q1-Q14 for departments 0-4 plus Example 1 for 5 universities, repeated under ref-gcov: " +
			"75 requests per pass from at most 75 texts fit the plan and view caches, so after warm-up " +
			"preparation is ~0 and exec, viewcache and httpapi serialization do the work",
	},
	{
		name:     "novel-gcov",
		strategy: "ref-gcov",
		why: "Example-1-shaped queries over the 100 external universities with permuted atoms and renamed " +
			"variables, never repeating, so every request misses the plan cache and core (GCov cover search, " +
			"JUCQ reformulation) and cost dominate; one query shape keeps p50 and p95 in one cost class",
	},
	{
		name:     "warm-range",
		strategy: "ref-range",
		why: "the warm-gcov query set under ref-range: the only workload that runs core.RangeReformulator " +
			"and the range evaluator in exec/range.go, where LUBM Q9 dominates the pass",
	},
	{
		name:     "read-write",
		strategy: "ref-gcov",
		writes:   true,
		why: "the only writing workload: durable data dir with -wal-sync always, each cycle one update " +
			"(insert a fresh batch, delete the batch of K cycles before) then a read-your-write query, a " +
			"checkpoint every few cycles, then restarts; exercises engine, graph, saturation, storage, stats, " +
			"ntriples and durable at a constant live size",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// read is one query request. key names its answer set in the oracle:
// requests with equal keys must return equal row sets.
type read struct {
	name string
	text string
	key  string
}

func exampleOneKey(univ int) string { return fmt.Sprintf("example1/University%d", univ) }

// warmPass is the repeated query set of warm-gcov and warm-range: LUBM
// Q1-Q14 for university 0, departments 0-4, plus Example 1 for five
// universities, in a seeded order that every pass repeats. The seed draws
// one university from each fifth of the external universities ranked by
// Example 1's answer size (from the oracle), so every seed's pass holds
// the same spread of Example 1 costs.
func warmPass(seed int64, orc oracle) []read {
	r := rand.New(rand.NewSource(seed))
	var pass []read
	for j := 0; j < 5; j++ {
		for _, nq := range lubm.QueryTexts(0, j) {
			pass = append(pass, read{name: nq.Name, text: nq.Text, key: nq.Text})
		}
	}
	univs := make([]int, externalUniversities)
	for u := range univs {
		univs[u] = u
	}
	sort.SliceStable(univs, func(a, b int) bool {
		return orc[exampleOneKey(univs[a])].N < orc[exampleOneKey(univs[b])].N
	})
	const strata = 5
	for k := 0; k < strata; k++ {
		lo, hi := k*len(univs)/strata, (k+1)*len(univs)/strata
		u := univs[lo+r.Intn(hi-lo)]
		pass = append(pass, read{name: fmt.Sprintf("EX1/U%d", u), text: exampleOneText(u), key: exampleOneKey(u)})
	}
	r.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return pass
}

func exampleOneText(u int) string { return lubm.ExampleOneText(lubm.UniversityIRI(u).Value) }

// externalUniversities is the LUBM profile's degree-granting pool.
var externalUniversities = lubm.Default().ExternalUniversities

// novelGen yields Example-1-shaped queries that never repeat, in passes:
// each pass asks once for every external university, in a seeded order,
// so that every run serves the same mix of universities (their cover
// searches differ in cost). Each text gets a random atom order and fresh
// variable names; renaming and reordering leave the answer set unchanged
// (the head keeps the order x, u, y, v, z), so the oracle is per
// university.
type novelGen struct {
	r     *rand.Rand
	univs []int
	n     int
	seen  map[string]bool
}

func newNovelGen(seed int64) *novelGen {
	return &novelGen{r: rand.New(rand.NewSource(seed ^ 0x6e6f76656c)), seen: map[string]bool{}}
}

// passLen is the number of queries in a novel pass.
func (g *novelGen) passLen() int { return externalUniversities }

// exampleOneAtoms is Example 1's body over the placeholders X U Y V Z
// and the university IRI.
var exampleOneAtoms = []string{
	"X rdf:type U",
	"Y rdf:type V",
	"X ub:mastersDegreeFrom <UNIV>",
	"Y ub:doctoralDegreeFrom <UNIV>",
	"X ub:memberOf Z",
	"Y ub:memberOf Z",
}

func (g *novelGen) varName() string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	const alnum = letters + "0123456789"
	b := []byte{letters[g.r.Intn(len(letters))]}
	for i := 0; i < 5; i++ {
		b = append(b, alnum[g.r.Intn(len(alnum))])
	}
	return string(b)
}

// next returns the pass's next query.
func (g *novelGen) next() read {
	if g.n%externalUniversities == 0 {
		g.univs = g.r.Perm(externalUniversities)
	}
	g.n++
	return g.text(g.univs[(g.n-1)%externalUniversities])
}

// warm returns a query for a random university, outside the passes.
func (g *novelGen) warm() read { return g.text(g.r.Intn(externalUniversities)) }

// text builds a query for university u that was not generated before.
func (g *novelGen) text(u int) read {
	for {
		names := map[string]bool{}
		var vars []string
		for len(vars) < 5 {
			v := g.varName()
			if !names[v] {
				names[v] = true
				vars = append(vars, v)
			}
		}
		rep := strings.NewReplacer("X", vars[0], "U", vars[1], "Y", vars[2], "V", vars[3], "Z", vars[4],
			"<UNIV>", "<"+lubm.UniversityIRI(u).Value+">")
		atoms := make([]string, len(exampleOneAtoms))
		for i, p := range g.r.Perm(len(exampleOneAtoms)) {
			atoms[i] = rep.Replace(exampleOneAtoms[p])
		}
		text := fmt.Sprintf("q(%s) :- %s", strings.Join(vars, ", "), strings.Join(atoms, ", "))
		if g.seen[text] {
			continue
		}
		g.seen[text] = true
		return read{name: fmt.Sprintf("EX1/U%d", u), text: text, key: exampleOneKey(u)}
	}
}

// Read-write cycle shape.
const (
	batchPersons    = 20 // persons inserted per update
	deleteLag       = 4  // cycle i deletes the batch of cycle i-deleteLag
	checkpointEvery = 5  // measured cycles between admin checkpoints
	tailCycles      = 5  // updates left in the WAL tail before restarts
)

// rwDept is the department the inserted persons join and the
// read-your-write query asks for.
var rwDept = lubm.DeptIRI(0, 0).Value

// rywText is the read-your-write query: the students of rwDept, which
// every inserted person is.
var rywText = fmt.Sprintf("q(x) :- x rdf:type ub:Student, x ub:memberOf <%s>", rwDept)

// rwGen generates the update batches of read-write from the seed.
type rwGen struct {
	seed  int64
	token string
}

func newRWGen(seed int64) rwGen {
	r := rand.New(rand.NewSource(seed ^ 0x7277))
	return rwGen{seed: seed, token: fmt.Sprintf("%08x", r.Uint32())}
}

// batch returns cycle i's inserted persons (as query-result terms) and
// their N-Triples document: each person gets a student class, the
// membership the read-your-write query matches, a name and an e-mail.
func (g rwGen) batch(i int) (persons []string, doc string) {
	var sb strings.Builder
	r := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)))
	for k := 0; k < batchPersons; k++ {
		p := rdf.NewIRI(fmt.Sprintf("http://bench.example.org/%s/c%d/p%d", g.token, i, k))
		class := "GraduateStudent"
		if r.Intn(2) == 0 {
			class = "UndergraduateStudent"
		}
		ts := []rdf.Triple{
			{S: p, P: rdf.Type, O: lubm.Class(class)},
			{S: p, P: lubm.Prop("memberOf"), O: rdf.NewIRI(rwDept)},
			{S: p, P: lubm.Prop("name"), O: rdf.NewLiteral(fmt.Sprintf("Person %s %d %d", g.token, i, k))},
			{S: p, P: lubm.Prop("emailAddress"), O: rdf.NewLiteral(fmt.Sprintf("p%d.c%d@%s.example.org", k, i, g.token))},
		}
		for _, t := range ts {
			sb.WriteString(t.S.String() + " " + t.P.String() + " " + t.O.String() + " .\n")
		}
		persons = append(persons, p.String())
	}
	return persons, sb.String()
}
