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
	req, ok := my.attrs[AttrRequirements]
	if !ok {
		return true
	}
	return evalExpr(req, evalContext{my: my, target: target}).IsTrue()
}

// Rank evaluates my's Rank expression against target. Missing, UNDEFINED,
// or non-numeric ranks are 0, per Condor.
func Rank(my, target *Ad) float64 {
	e, ok := my.attrs[AttrRank]
	if !ok {
		return 0
	}
	v := evalExpr(e, evalContext{my: my, target: target})
	f, ok := v.Number()
	if !ok {
		if b, bok := v.BoolVal(); bok && b {
			return 1
		}
		return 0
	}
	return f
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
// Evaluation is pure, so Offer evaluates a candidate's Requirements only
// when its ranks would displace the held candidate: once one is held, a
// candidate with a lower (or NaN) job Rank, or an equal one without a
// higher target Rank, cannot win whether or not it matches. That prunes
// most of a large scan and leaves the pick, including the lowest-index
// tie-break, unchanged.
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
	if r, tr := Rank(job, c), Rank(c, job); b.displaces(r, tr) && Match(job, c) {
		b.idx, b.rank, b.trank = i+1, r, tr
	}
}

// Merge folds in o, the result of scanning later candidates. Merging the
// results of consecutive index ranges in ascending order picks what one
// Offer scan over all of them picks, provided no rank is NaN: a range's
// scan holds its first match even at a NaN rank, where a serial scan
// already holding a candidate would pass it over.
func (b *Best) Merge(o Best) {
	if o.idx != 0 && b.displaces(o.rank, o.trank) {
		*b = o
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
