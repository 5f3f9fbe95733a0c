package classad

// Matchmaking follows the Condor negotiator's symmetric protocol: two ads
// match when each ad's Requirements expression evaluates to TRUE in the
// context where MY is that ad and TARGET is the other. Rank (a number,
// higher is better) orders the matches.

// Attribute names with conventional meaning to the matchmaker.
const (
	AttrRequirements = "requirements"
	AttrRank         = "rank"
)

// Match reports whether ads a and b match symmetrically. A missing
// Requirements attribute counts as TRUE (an unconstrained ad), matching the
// behavior of resource ads that accept anything.
func Match(a, b *Ad) bool {
	return halfMatch(a, b) && halfMatch(b, a)
}

func halfMatch(my, target *Ad) bool {
	req, ok := my.lookup(AttrRequirements)
	if !ok {
		return true
	}
	return evalExpr(req, evalContext{my: my, target: target}).IsTrue()
}

// MatchMemo is Match for a caller that asks about the same pair again and
// again, as Condor-G asks about a job pinned to one site at every
// negotiation cycle. A refusal is remembered on a, with b and both ads'
// generations, and answers the next ask without evaluation until a write
// that may change the verdict (to a binding either Requirements read, or
// an insert or a delete) moves a generation. A collector refresh that
// rewrites only load attributes the Requirements do not read keeps it. An ask that matches stores nothing and allocates nothing.
// Neither ad may be nil.
func MatchMemo(a, b *Ad) bool {
	if m := a.memo; m != nil && m.refused == b && m.myGen == m.gen && m.targetGen == b.memo.gen {
		return false
	}
	if Match(a, b) {
		return true
	}
	w1 := reads{my: a, target: b}
	w2 := reads{my: b, target: a}
	if w1.ref(a, &w1.myBits, AttrRequirements, 0) && w2.ref(b, &w2.myBits, AttrRequirements, 0) {
		ma, mb := a.memos(), b.memos()
		ma.watch |= w1.myBits | w2.targetBits
		mb.watch |= w1.targetBits | w2.myBits
		ma.refused, ma.myGen, ma.targetGen = b, ma.gen, mb.gen
	}
	return false
}

// reads walks what evaluating an expression with MY bound to my and
// TARGET to target can read, and sets the bit of each binding of either
// ad that it reaches. Names resolve as the evaluator resolves them, and a
// binding is followed into its expression, which the evaluator evaluates
// in the same context. An absent name sets no bit: only an insert can
// bind it, and an insert moves the ad's generation.
type reads struct {
	my, target         *Ad
	myBits, targetBits uint64
}

// expr walks e; depth counts nodes as evalExpr does. It reports false when
// the walk goes deeper than maxEvalDepth or reaches a binding beyond the
// 64 a mask holds, and the caller then stores nothing.
func (r *reads) expr(e Expr, depth int) bool {
	depth++
	if depth > maxEvalDepth {
		return false
	}
	switch x := e.(type) {
	case *litExpr:
		return true
	case *attrExpr:
		if x.scope == scopeMy || x.scope == scopeNone && r.my.index(x.name) >= 0 {
			return r.ref(r.my, &r.myBits, x.name, depth)
		}
		return r.ref(r.target, &r.targetBits, x.name, depth)
	case *unaryExpr:
		return r.expr(x.x, depth)
	case *binaryExpr:
		return r.expr(x.l, depth) && r.expr(x.r, depth)
	case *condExpr:
		return r.expr(x.cond, depth) && r.expr(x.then, depth) && r.expr(x.els, depth)
	case *callExpr:
		for _, a := range x.args {
			if !r.expr(a, depth) {
				return false
			}
		}
		return true
	}
	return false
}

// ref follows name into ad's binding, whose bit goes into bits. A binding
// whose bit is already set is not walked again: the walk that set it sets
// every bit its expression reaches, so a reference cycle ends at its first
// repeat.
func (r *reads) ref(ad *Ad, bits *uint64, name string, depth int) bool {
	i := ad.index(name)
	switch {
	case i < 0:
		return true
	case i >= 64:
		return false
	case *bits&(1<<i) != 0:
		return true
	}
	*bits |= 1 << i
	return r.expr(ad.attrs[i].expr, depth)
}

// Rank evaluates my's Rank expression against target. Missing, UNDEFINED,
// or non-numeric ranks are 0, per Condor.
//
// Rank memoizes on target: when my's Rank expression is the one last
// evaluated there (compared by pointer, so every job sharing one parsed
// Rank shares the memo) and it reads nothing but target, the stored value
// is returned. Between two collector refreshes a CE ad is ranked by the
// same job Rank on every unpinned scan, and Set or Delete on target clears
// the memo, so a hit returns what evaluation would.
func Rank(my, target *Ad) float64 {
	e, ok := my.lookup(AttrRank)
	if !ok {
		return 0
	}
	if target == nil {
		return rankValue(evalExpr(e, evalContext{my: my}))
	}
	if m := target.memo; m != nil && m.rank.expr == e && m.rank.targetOnly {
		return m.rank.val
	}
	f := rankValue(evalExpr(e, evalContext{my: my, target: target}))
	if m := &target.memos().rank; m.expr != e {
		*m = rankMemo{expr: e, val: f, targetOnly: readsOnlyTarget(e, target, 0)}
	}
	return f
}

// rankValue converts an evaluated Rank to a number: TRUE is 1, and
// anything else that is not a number is 0.
func rankValue(v Value) float64 {
	f, ok := v.Number()
	if !ok {
		if b, bok := v.BoolVal(); bok && b {
			return 1
		}
		return 0
	}
	return f
}

// readsOnlyTarget reports whether every attribute reference that
// evaluating e against target can reach is TARGET-scoped, following each
// into target's own binding: the evaluator evaluates that binding with MY
// still bound, so a binding such as FreeCpus = MY.Cpus reads MY. An
// unscoped name looks in MY first, so it reads MY too. depth counts nodes
// as evalExpr does; a walk deeper than maxEvalDepth (a reference cycle)
// reports false.
func readsOnlyTarget(e Expr, target *Ad, depth int) bool {
	depth++
	if depth > maxEvalDepth {
		return false
	}
	switch x := e.(type) {
	case *litExpr:
		return true
	case *attrExpr:
		if x.scope != scopeTarget {
			return false
		}
		b, ok := target.lookup(x.name)
		return !ok || readsOnlyTarget(b, target, depth)
	case *unaryExpr:
		return readsOnlyTarget(x.x, target, depth)
	case *binaryExpr:
		return readsOnlyTarget(x.l, target, depth) && readsOnlyTarget(x.r, target, depth)
	case *condExpr:
		return readsOnlyTarget(x.cond, target, depth) &&
			readsOnlyTarget(x.then, target, depth) && readsOnlyTarget(x.els, target, depth)
	case *callExpr:
		for _, a := range x.args {
			if !readsOnlyTarget(a, target, depth) {
				return false
			}
		}
		return true
	}
	return false
}

// BestMatch returns the index of the candidate with the highest
// job-Rank among those that match job, breaking ties by the candidate's
// own Rank of the job, then by lowest index (deterministic). It returns -1
// if nothing matches.
func BestMatch(job *Ad, candidates []*Ad) int {
	var b Best
	for i, c := range candidates {
		b.Offer(i, job, c)
	}
	return b.Index()
}

// Best accumulates BestMatch over candidates offered in ascending index
// order. The zero value holds nothing.
//
// Evaluation has no observable effect (Rank's memo returns what evaluation
// would), so Offer skips what cannot change the pick. Once a candidate is
// held, one with a lower (or NaN) job Rank cannot win, so Offer evaluates
// a candidate's own Rank of the job only when its job Rank ties or beats
// the held one, and its Requirements only when its ranks would displace
// the held candidate. That prunes most of a large scan and leaves the
// pick, including the lowest-index tie-break, unchanged.
type Best struct {
	idx         int // held candidate's index + 1; 0 while none is held
	rank, trank float64
}

// Index returns the held candidate's index, or -1 if nothing matched.
func (b *Best) Index() int { return b.idx - 1 }

// displaces reports whether a matching candidate with job Rank r and
// target Rank tr replaces the held one: a strictly higher job Rank, or an
// equal one with a strictly higher target Rank. Ties therefore keep the
// lower index, and a NaN job Rank neither displaces nor, once held, is
// displaced.
func (b *Best) displaces(r, tr float64) bool {
	return b.idx == 0 || r > b.rank || (r == b.rank && tr > b.trank)
}

// Offer considers candidate i, ad c, for job; a nil c never matches.
func (b *Best) Offer(i int, job, c *Ad) {
	if c == nil {
		return
	}
	if b.idx == 0 {
		if Match(job, c) {
			b.idx, b.rank, b.trank = i+1, Rank(job, c), Rank(c, job)
		}
		return
	}
	// r >= b.rank is false for a lower job Rank and whenever either side
	// is NaN: exactly the cases displaces rejects for every target Rank.
	r := Rank(job, c)
	if !(r >= b.rank) {
		return
	}
	if tr := Rank(c, job); b.displaces(r, tr) && Match(job, c) {
		b.idx, b.rank, b.trank = i+1, r, tr
	}
}

// MatchAll returns the indices of all candidates matching job, in order.
func MatchAll(job *Ad, candidates []*Ad) []int {
	var out []int
	for i, c := range candidates {
		if c != nil && Match(job, c) {
			out = append(out, i)
		}
	}
	return out
}
