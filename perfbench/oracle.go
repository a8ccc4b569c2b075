package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/query"
)

// rowHash is an order-independent hash of a row set: the row count and
// the sum of per-row hashes. Answers are sets, so the sum identifies the
// set, and the hash of a union of disjoint sets is the sum of theirs —
// which lets read-write add the live inserted rows to the base answer.
type rowHash struct {
	N   int    `json:"n"`
	Sum uint64 `json:"sum"`
}

func hashRow(terms []string) uint64 {
	h := fnv.New64a()
	for _, t := range terms {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	// splitmix64 finalizer: spreads FNV's low-entropy high bits before
	// the additive combination.
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (h *rowHash) add(terms []string) {
	h.N++
	h.Sum += hashRow(terms)
}

func (h rowHash) plus(o rowHash) rowHash { return rowHash{N: h.N + o.N, Sum: h.Sum + o.Sum} }

func (h rowHash) minus(o rowHash) rowHash { return rowHash{N: h.N - o.N, Sum: h.Sum - o.Sum} }

// hashRelation hashes a relation's rows as the server renders them.
func hashRelation(d *dict.Dict, rows *exec.Relation) rowHash {
	var h rowHash
	terms := make([]string, rows.Width())
	for i := 0; i < rows.Len(); i++ {
		for j, id := range rows.Row(i) {
			terms[j] = d.Decode(id).String()
		}
		h.add(terms)
	}
	return h
}

var prefixes = map[string]string{"ub": lubm.NS}

// oracle maps a read's key to the hash of its correct answer.
type oracle map[string]rowHash

// buildOracle answers one text per key in-process with the sat strategy
// (saturate, then evaluate) over the same LUBM graph refserve generates.
func buildOracle(texts map[string]string) (oracle, error) {
	g, err := lubm.NewGraph(lubmProfile(), dataSeed)
	if err != nil {
		return nil, fmt.Errorf("oracle: generate: %w", err)
	}
	e := engine.New(g)
	out := oracle{}
	for key, text := range texts {
		q, err := query.ParseRuleWithPrefixes(g.Dict(), prefixes, text)
		if err != nil {
			return nil, fmt.Errorf("oracle: parse %q: %w", text, err)
		}
		ans, err := e.Answer(q, engine.Sat)
		if err != nil {
			return nil, fmt.Errorf("oracle: answer %q: %w", text, err)
		}
		out[key] = hashRelation(g.Dict(), ans.Rows)
	}
	return out, nil
}

// lubmProfile is refserve's profile at -scale 1.
func lubmProfile() lubm.Profile {
	p := lubm.Default()
	p.Universities = 1
	return p
}

// oracleTexts lists one text per answer key the workload can send.
func oracleTexts(w workload) map[string]string {
	texts := map[string]string{}
	switch w.name {
	case "warm-gcov", "warm-range":
		// Every university's Example 1: warmPass ranks them by answer size.
		for j := 0; j < 5; j++ {
			for _, nq := range lubm.QueryTexts(0, j) {
				texts[nq.Text] = nq.Text
			}
		}
		fallthrough
	case "novel-gcov":
		for u := 0; u < externalUniversities; u++ {
			texts[exampleOneKey(u)] = exampleOneText(u)
		}
	case "read-write":
		texts[rywText] = rywText
	}
	return texts
}
