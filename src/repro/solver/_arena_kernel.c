/* Kernels over the flat clause arena (see repro/solver/solver.py).
 *
 * The arena is one int32 buffer of clause records:
 *
 *   arena[ref + 0]  size      number of literals
 *   arena[ref + 1]  flags     bit 0 learned, bit 1 protected,
 *                             bit 2 dead, bits >= 3 the LBD stamp
 *   arena[ref + 2]  act_idx   index into the activity/birth side arrays
 *   arena[ref + 3]  scan      saved replacement-scan offset (circular)
 *   arena[ref + 4]  next0     next watch node of slot 0 ((ref << 1) | slot,
 *   arena[ref + 5]  blk0       -1 terminates), and slot 0's cached blocker
 *   arena[ref + 6]  next1     same for watch slot 1
 *   arena[ref + 7]  blk1
 *   arena[ref + 8 ..]         encoded literals; slots 0 and 1 watch
 *                             positions 0 and 1
 *
 * watch_head[lit] heads the chain of nodes watching encoded literal
 * `lit`.  Truth values: lit_value[q] is 1 (true), 0 (false) or -1.
 *
 * The per-variable and per-literal buffers, and the scratch the kernels
 * write their results to, reach the kernels through one address table
 * (`struct tables`).  The solver keeps it cached and refreshes it
 * wherever one of those buffers can move.  The arena, the trail and the
 * learned-ref stack move on append: the single-step kernels take them per
 * call, and the search loop (`arena_search`) reaches them, padded with
 * room it may append into, through a second table (`struct room`).
 */

#include <stdint.h>

#define HDR 8
#define FLAG_LEARNED 1
#define FLAG_DEAD 4

/* Every field is a pointer, so the layout is that of a C array of
 * pointers: repro/solver/_kernel.py builds it as one, in this order
 * (TABLE_FIELDS there names the solver attribute behind each field).
 */
struct tables {
    int32_t *assigns;      /* per variable: 1, 0 or -1 */
    int32_t *levels;       /* per variable: decision level */
    int32_t *reasons;      /* per variable: implying ref or -1 */
    int32_t *lit_value;    /* per literal: 1, 0 or -1 */
    int32_t *watch_head;   /* per literal: first watch node or -1 */
    int32_t *seen;         /* per variable: analysis marks, zero between calls */
    double *var_activity;  /* per variable */
    double *lit_activity;  /* per literal */
    double *vsids;         /* per literal */
    uint8_t *eliminated;   /* per variable: 1 while eliminated */
    int32_t *implied;      /* propagation's implied literals */
    int32_t *learnt;       /* the conflict call's learnt clause */
    int32_t *marked;       /* the conflict call's marked variables */
    int32_t *hints;        /* the conflict call's proof hints */
    int32_t *level_marks;  /* per decision level, zero between calls */
    int32_t *out;          /* out-params, four words */
};

/* Propagate to fixpoint (BCP) over the watch chains.
 *
 * The work queue is the unpropagated tail of the trail itself
 * (`trail[qhead .. trail_len)`), continued by `scratch`, where every
 * implied literal is appended (the search loop passes the trail's own
 * room, trail + trail_len).  Assignments (including their reasons) are
 * written straight into the shared buffers.
 *
 * Returns the number of literals appended to `scratch` (== the number
 * of propagations performed); *conflict_out is the conflicting ref (-1
 * at fixpoint).
 */
static int32_t propagate(
    const struct tables *t,
    int32_t *arena,
    int32_t *trail,
    int32_t qhead,
    int32_t trail_len,
    int32_t level,
    int32_t *scratch,
    int32_t *conflict_out)
{
    int32_t *watch_head = t->watch_head;
    int32_t *lit_value = t->lit_value;
    int32_t *assigns = t->assigns;
    int32_t *levels = t->levels;
    int32_t *reasons = t->reasons;
    int32_t head = qhead; /* consumes trail first, then scratch */
    int32_t scratch_head = 0;
    int32_t tail = 0;
    int32_t conflict = -1;

    for (;;) {
        int32_t fq;
        if (head < trail_len)
            fq = trail[head++] ^ 1; /* the literal just falsified */
        else if (scratch_head < tail)
            fq = scratch[scratch_head++] ^ 1;
        else
            break;
        int32_t prev = -1;                /* -1: predecessor is watch_head[fq] */
        int32_t node = watch_head[fq];
        while (node != -1) {
            int32_t ref = node >> 1;
            int32_t slot = node & 1;
            int32_t nf = ref + 4 + 2 * slot; /* this node's next field */
            int32_t next = arena[nf];
            int32_t blocker = arena[nf + 1];
            if (lit_value[blocker] == 1) { /* satisfied: don't touch the record */
                prev = nf;
                node = next;
                continue;
            }
            if (arena[ref + 1] & FLAG_DEAD) { /* lazy unlink of deleted records */
                if (prev < 0) watch_head[fq] = next; else arena[prev] = next;
                node = next;
                continue;
            }
            int32_t base = ref + HDR;
            int32_t other = arena[base + 1 - slot]; /* the companion watch */
            int32_t other_value = lit_value[other];
            if (other_value == 1) { /* satisfied: refresh the blocker */
                arena[nf + 1] = other;
                prev = nf;
                node = next;
                continue;
            }
            /* Circular replacement search from the saved offset. */
            int32_t end = base + arena[ref];
            int32_t saved = base + arena[ref + 3];
            int32_t found = -1;
            for (int32_t scan = saved; scan < end; scan++) {
                if (lit_value[arena[scan]] != 0) { found = scan; break; }
            }
            if (found < 0) {
                for (int32_t scan = base + 2; scan < saved; scan++) {
                    if (lit_value[arena[scan]] != 0) { found = scan; break; }
                }
            }
            if (found >= 0) { /* move the watch to the replacement literal */
                int32_t candidate = arena[found];
                arena[found] = fq;
                arena[base + slot] = candidate;
                arena[ref + 3] = found - base;
                if (prev < 0) watch_head[fq] = next; else arena[prev] = next;
                arena[nf] = watch_head[candidate];
                arena[nf + 1] = other;
                watch_head[candidate] = node;
                node = next;
                continue;
            }
            if (other_value == 0) { /* no replacement, companion false: conflict */
                conflict = ref;
                break;
            }
            /* Unit: imply the companion watch. */
            int32_t variable = other >> 1;
            assigns[variable] = (other & 1) ^ 1;
            lit_value[other] = 1;
            lit_value[other ^ 1] = 0;
            levels[variable] = level;
            reasons[variable] = ref;
            scratch[tail++] = other;
            arena[nf + 1] = other;
            prev = nf;
            node = next;
        }
        if (conflict >= 0) break;
    }
    *conflict_out = conflict;
    return tail;
}

/* BCP for callers outside the search loop: the implied literals go to
 * `t->implied`, and the Python caller extends its trail with them.
 * out[0] is the conflicting ref (-1 at fixpoint).
 */
int32_t arena_propagate(
    const struct tables *t,
    int32_t *arena,
    int32_t *trail,
    int32_t qhead,
    int32_t trail_len,
    int32_t level)
{
    return propagate(t, arena, trail, qhead, trail_len, level, t->implied, &t->out[0]);
}

/* Assign `literal` true at `level` with `reason` (-1: none) and append it
 * to the trail (Solver._enqueue).
 */
static void assign(
    const struct tables *t,
    int32_t *trail,
    int32_t *trail_len,
    int32_t literal,
    int32_t reason,
    int32_t level)
{
    int32_t variable = literal >> 1;
    t->assigns[variable] = (literal & 1) ^ 1;
    t->lit_value[literal] = 1;
    t->lit_value[literal ^ 1] = 0;
    t->levels[variable] = level;
    t->reasons[variable] = reason;
    trail[(*trail_len)++] = literal;
}

/* Unassign one trail literal. */
static void undo(const struct tables *t, int32_t literal)
{
    int32_t variable = literal >> 1;
    t->assigns[variable] = -1;
    t->lit_value[literal] = -1;
    t->lit_value[literal ^ 1] = -1;
    t->reasons[variable] = -1;
}

/* Undo the assignments of trail[limit .. trail_len) (backtracking); the
 * caller truncates its trail afterwards.
 */
void arena_backtrack(
    const struct tables *t,
    int32_t *trail,
    int32_t limit,
    int32_t trail_len)
{
    for (int32_t index = trail_len - 1; index >= limit; index--)
        undo(t, trail[index]);
}

/* One conflict of the search loop, from analysis to backtrack
 * (Solver._analyze followed by Solver._backtrack, whose pure-Python loops
 * are the reference).
 *
 * In order: the first-UIP resolution walk, bumping clause_act of every
 * responsible learned record and, with options bit 0, var_activity once
 * per literal of every responsible record (BerkMin's sensitivity, paper
 * Section 4); with options bit 1, self-subsumption minimization of the
 * learnt clause against the reasons of its literals; the deepest
 * non-asserting literal swapped to position 1, its level being the
 * backjump level; the LBD (distinct levels among the learnt literals);
 * the learnt-literal bumps (var_activity without options bit 0,
 * lit_activity and vsids always); clearing the marks; and undoing every
 * assignment above the backjump level, found from the end of the
 * level-ordered trail.
 *
 * With options bit 2, the proof hints of the learnt clause go to
 * t->hints: the proof ids (clause_ids[act_idx]) of the reasons
 * minimization used, in trail order, then of the records the walk
 * resolved on, in trail order, then of the conflicting record.  Asserting
 * the negated clause makes each of them unit in turn and the last one
 * false, which is what a RUP checker needs to follow them.
 *
 * Writes the learnt clause to t->learnt (position 0 is the asserting
 * literal, already negated) and returns its size, or -1 when a needed
 * reason is missing (the caller raises).  out[0] is the backjump level,
 * out[1] the LBD, out[2] the trail length after the backtrack and out[3]
 * the number of hints.
 */
static int32_t analyze(
    const struct tables *t,
    int32_t *arena,
    int32_t *trail,
    double *clause_act,
    int32_t *clause_ids,
    int32_t conflict,
    int32_t trail_len,
    int32_t level,
    int32_t options)
{
    int32_t *levels = t->levels;
    int32_t *seen = t->seen;
    int32_t *learnt = t->learnt;
    int32_t *marked = t->marked;
    int32_t *hints = t->hints;
    double *var_activity = t->var_activity;
    int32_t bump_responsible = options & 1;
    int32_t with_hints = options & 4;
    int32_t clause = conflict;
    int32_t unresolved = 0;
    int32_t index = trail_len - 1;
    int32_t resolved_variable = -1;
    int32_t learnt_len = 1; /* position 0 reserved for the asserting literal */
    int32_t marked_len = 0;
    int32_t hint_len = 0;
    int32_t asserting = -1;

    for (;;) {
        if (clause < 0)
            return -1;
        int32_t ref = clause;
        if (with_hints)
            hints[hint_len++] = clause_ids[arena[ref + 2]];
        if (arena[ref + 1] & FLAG_LEARNED)
            clause_act[arena[ref + 2]] += 1.0;
        int32_t base = ref + HDR;
        int32_t end = base + arena[ref];
        if (bump_responsible) {
            for (int32_t position = base; position < end; position++)
                var_activity[arena[position] >> 1] += 1.0;
        }
        for (int32_t position = base; position < end; position++) {
            int32_t literal = arena[position];
            int32_t variable = literal >> 1;
            if (variable == resolved_variable)
                continue; /* the literal this resolution removes */
            if (!seen[variable] && levels[variable] > 0) {
                seen[variable] = 1;
                marked[marked_len++] = variable;
                if (levels[variable] >= level)
                    unresolved++;
                else
                    learnt[learnt_len++] = literal;
            }
        }
        while (!seen[trail[index] >> 1])
            index--;
        asserting = trail[index];
        int32_t variable = asserting >> 1;
        resolved_variable = variable;
        clause = t->reasons[variable];
        seen[variable] = 0;
        unresolved--;
        index--;
        if (unresolved == 0)
            break;
    }
    learnt[0] = asserting ^ 1;

    if ((options & 2) && learnt_len > 2) {
        /* A literal is redundant when every other literal of its reason
         * is marked or at level 0 (marks of dropped literals stay set,
         * as 2, so the hints can find them).
         */
        int32_t kept = 1;
        for (int32_t position = 1; position < learnt_len; position++) {
            int32_t literal = learnt[position];
            int32_t ref = t->reasons[literal >> 1];
            int32_t redundant = ref >= 0;
            if (redundant) {
                int32_t end = ref + HDR + arena[ref];
                for (int32_t scan = ref + HDR; scan < end; scan++) {
                    int32_t variable = arena[scan] >> 1;
                    if (variable != literal >> 1 && !seen[variable] && levels[variable] > 0) {
                        redundant = 0;
                        break;
                    }
                }
            }
            if (redundant)
                seen[literal >> 1] = 2;
            else
                learnt[kept++] = literal;
        }
        /* The dropped literals all sit below the walk's stopping point
         * (their levels are lower); collect their reasons from there down.
         */
        int32_t dropped = with_hints ? learnt_len - kept : 0;
        for (int32_t position = index; dropped > 0 && position >= 0; position--) {
            int32_t variable = trail[position] >> 1;
            if (seen[variable] == 2) {
                hints[hint_len++] = clause_ids[arena[t->reasons[variable] + 2]];
                dropped--;
            }
        }
        learnt_len = kept;
    }
    /* Collected last to first; the checker wants them first to last. */
    for (int32_t low = 0, high = hint_len - 1; low < high; low++, high--) {
        int32_t swap = hints[low];
        hints[low] = hints[high];
        hints[high] = swap;
    }

    int32_t backjump = 0;
    if (learnt_len > 1) {
        int32_t deepest = 1;
        for (int32_t position = 2; position < learnt_len; position++) {
            if (levels[learnt[position] >> 1] > levels[learnt[deepest] >> 1])
                deepest = position;
        }
        int32_t literal = learnt[deepest];
        learnt[deepest] = learnt[1];
        learnt[1] = literal;
        backjump = levels[literal >> 1];
    }

    int32_t *level_marks = t->level_marks;
    int32_t lbd = 0;
    for (int32_t position = 0; position < learnt_len; position++) {
        int32_t literal = learnt[position];
        int32_t literal_level = levels[literal >> 1];
        if (!level_marks[literal_level]) {
            level_marks[literal_level] = 1;
            lbd++;
        }
        if (!bump_responsible)
            var_activity[literal >> 1] += 1.0;
        t->lit_activity[literal] += 1.0;
        t->vsids[literal] += 1.0;
    }
    for (int32_t position = 0; position < learnt_len; position++)
        level_marks[levels[learnt[position] >> 1]] = 0;
    for (int32_t position = 0; position < marked_len; position++)
        seen[marked[position]] = 0;

    int32_t cut = trail_len;
    while (cut > 0 && levels[trail[cut - 1] >> 1] > backjump)
        undo(t, trail[--cut]);
    t->out[0] = backjump;
    t->out[1] = lbd;
    t->out[2] = cut;
    t->out[3] = hint_len;
    return learnt_len;
}

/* Link both watch slots of one record at the head of their literals'
 * chains, each blocker seeded with the companion watch (Python's
 * Solver._attach_ref).
 */
static void attach(int32_t *arena, int32_t *watch_head, int32_t ref)
{
    int32_t first = arena[ref + HDR];
    int32_t second = arena[ref + HDR + 1];
    arena[ref + 4] = watch_head[first];
    arena[ref + 5] = second;
    watch_head[first] = ref << 1;
    arena[ref + 6] = watch_head[second];
    arena[ref + 7] = first;
    watch_head[second] = (ref << 1) | 1;
}

/* Thread the watches of refs[0 .. count) in order (the rebuild after a
 * database reduction or an arena GC).
 */
void arena_attach(int32_t *arena, int32_t *watch_head, int32_t *refs, int32_t count)
{
    for (int32_t index = 0; index < count; index++)
        attach(arena, watch_head, refs[index]);
}

/* Load the clauses of words[offset .. length) at decision level 0,
 * doing for each what Solver._add_clause, the per-clause reference,
 * does there: drop a tautology, remove repeated literals (first
 * occurrence kept), skip a clause a level-0 literal satisfies, strip
 * level-0-false literals, assign a unit, or write an original record and
 * thread both of its watches.
 *
 * `words` holds the clauses as the DIMACS body does: each clause's
 * literals, then a 0.  Records are written from arena[arena_len], which
 * the caller has sized for the worst case; activity indices count up
 * from `act_idx`.  The per-variable and per-literal buffers come from
 * `t`; its `seen` marks are zero on entry and on return.
 *
 * The scan stops at a clause it cannot finish — a variable past
 * `num_variables` or an eliminated one (the reference restores it), or a
 * clause that strips to empty — and returns the number of clauses it
 * finished before it; the caller runs the reference on that clause and
 * resumes after its terminator.  Outputs: the refs of new records in
 * `refs` and their proof ids in `ids` (`id_base - index` for the
 * clause at `index` of this call, the proof's id of an input clause),
 * the assigned unit literals in `units` (the trail's continuation), the
 * refs of records shorter than their input clause in `shortened` (each
 * needs a proof line), and in out[0 .. 4) the new arena length and the
 * counts of refs, units and shortened refs; out[4] and out[5] are the
 * offsets of the first literal and of the terminator of the clause the
 * scan stopped at (both `length` when it loaded every clause).
 */
int32_t arena_load(
    const struct tables *t,
    const int32_t *words,
    int32_t offset,
    int32_t length,
    int32_t num_variables,
    int32_t *arena,
    int32_t arena_len,
    int32_t act_idx,
    int32_t id_base,
    int32_t *refs,
    int32_t *ids,
    int32_t *units,
    int32_t *shortened,
    int32_t *out)
{
    int32_t *watch_head = t->watch_head;
    int32_t *lit_value = t->lit_value;
    int32_t *seen = t->seen;
    uint8_t *eliminated = t->eliminated;
    int32_t ref_count = 0, unit_count = 0, short_count = 0;
    int32_t clause = 0;
    int32_t size = 0;

    for (; offset < length; clause++, offset += size + 1) {
        const int32_t *source = words + offset;
        int32_t loadable = 1;
        for (size = 0; offset + size < length && source[size] != 0; size++) {
            int32_t literal = source[size];
            if (literal > num_variables || literal < -num_variables
                || eliminated[literal < 0 ? -literal : literal])
                loadable = 0;
        }
        if (!loadable)
            break;

        /* Encode into the next record's literal area, deduplicating. */
        int32_t ref = arena_len;
        int32_t *body = arena + ref + HDR;
        int32_t kept = 0;
        int32_t tautology = 0;
        for (int32_t index = 0; index < size; index++) {
            int32_t literal = source[index];
            int32_t negative = literal < 0;
            int32_t variable = negative ? -literal : literal;
            int32_t mark = negative ? 2 : 1;
            if (seen[variable] == 0) {
                seen[variable] = mark;
                body[kept++] = 2 * variable + negative;
            } else if (seen[variable] != mark) {
                tautology = 1;
                break;
            }
        }
        for (int32_t index = 0; index < kept; index++)
            seen[body[index] >> 1] = 0;
        if (tautology)
            continue;

        /* Reduce against the level-0 assignments. */
        int32_t remaining = 0;
        int32_t satisfied = 0;
        for (int32_t index = 0; index < kept; index++) {
            int32_t literal = body[index];
            int32_t value = lit_value[literal];
            if (value == 1) {
                satisfied = 1;
                break;
            }
            if (value == -1)
                body[remaining++] = literal;
        }
        if (satisfied)
            continue;
        if (remaining == 0)
            break; /* refutes the formula: the reference logs it */
        if (remaining == 1) {
            int32_t literal = body[0];
            int32_t variable = literal >> 1;
            t->assigns[variable] = (literal & 1) ^ 1;
            lit_value[literal] = 1;
            lit_value[literal ^ 1] = 0;
            t->levels[variable] = 0;
            t->reasons[variable] = -1;
            units[unit_count++] = literal;
            continue;
        }
        if (remaining < size)
            shortened[short_count++] = ref;
        arena[ref] = remaining;
        arena[ref + 1] = 0;
        arena[ref + 2] = act_idx++;
        arena[ref + 3] = 2;
        attach(arena, watch_head, ref);
        ids[ref_count] = id_base - clause;
        refs[ref_count++] = ref;
        arena_len = ref + HDR + remaining;
    }
    out[0] = arena_len;
    out[1] = ref_count;
    out[2] = unit_count;
    out[3] = short_count;
    out[4] = offset < length ? offset : length;
    out[5] = offset < length ? offset + size : length;
    return clause;
}

/* One decision scan (Solver._berkmin_decision without its phase choice,
 * and Solver._most_active_free; their pure-Python loops are the
 * reference).
 *
 * From learned-stack index `start` down, collect the first `window`
 * records (at least one) with no true literal; the most active free
 * variable among their literals wins, the first one met on ties,
 * scanning the topmost record first.  *topmost_out is the stack index of
 * the topmost record collected and *ref_out the ref of the record the
 * winner was met in.  With start < 0, or when every record down to the
 * bottom is satisfied, *topmost_out is -1 and the winner is the most
 * active free variable that is not eliminated, the smallest on ties.
 *
 * Returns the winning variable, or -1 when there is none.
 */
static int32_t decide(
    const struct tables *t,
    int32_t *arena,
    int32_t *learned,
    int32_t start,
    int32_t window,
    int32_t num_variables,
    int32_t *topmost_out,
    int32_t *ref_out)
{
    int32_t *lit_value = t->lit_value;
    int32_t *assigns = t->assigns;
    double *activity = t->var_activity;
    int32_t best = -1;
    int32_t best_ref = -1;
    double best_score = -1.0;
    int32_t topmost = -1;
    int32_t collected = 0;

    for (int32_t index = start; index >= 0; index--) {
        int32_t ref = learned[index];
        int32_t base = ref + HDR;
        int32_t end = base + arena[ref];
        int32_t satisfied = 0;
        for (int32_t position = base; position < end; position++) {
            if (lit_value[arena[position]] == 1) {
                satisfied = 1;
                break;
            }
        }
        if (satisfied)
            continue;
        if (topmost < 0)
            topmost = index;
        for (int32_t position = base; position < end; position++) {
            int32_t variable = arena[position] >> 1;
            if (assigns[variable] == -1 && activity[variable] > best_score) {
                best_score = activity[variable];
                best = variable;
                best_ref = ref;
            }
        }
        if (++collected >= window)
            break;
    }
    *topmost_out = topmost;
    *ref_out = best_ref;
    if (topmost >= 0)
        return best;

    uint8_t *eliminated = t->eliminated;
    for (int32_t variable = 1; variable <= num_variables; variable++) {
        if (assigns[variable] == -1 && !eliminated[variable]
                && activity[variable] > best_score) {
            best_score = activity[variable];
            best = variable;
        }
    }
    return best;
}

/* The number of live binary records on `literal`'s watch chain, newest
 * first (a binary record's watch nodes never move); its partners in the
 * first `room` of them go to partners[0 ..).
 */
static int64_t binaries(
    const int32_t *arena,
    const int32_t *watch_head,
    int32_t literal,
    int32_t *partners,
    int64_t room)
{
    int64_t count = 0;
    for (int32_t node = watch_head[literal]; node != -1;) {
        int32_t ref = node >> 1;
        int32_t slot = node & 1;
        if (arena[ref] == 2 && !(arena[ref + 1] & FLAG_DEAD)) {
            if (count < room)
                partners[count] = arena[ref + HDR + 1 - slot];
            count++;
        }
        node = arena[ref + 4 + 2 * slot];
    }
    return count;
}

/* BerkMin's nb_two cost of `literal` (phase.nb_two, the reference): its
 * binary records, plus for each partner v the binary records of the
 * complement of v, summed oldest record first and stopped once past
 * `threshold`.  The partners are kept in t->implied; returns -1 when
 * more of them would have to be kept than its num_variables + 2 words.
 */
static int64_t nb_two(
    const struct tables *t,
    const int32_t *arena,
    int32_t literal,
    int64_t threshold,
    int32_t num_variables)
{
    int32_t *partners = t->implied;
    int64_t room = (int64_t) num_variables + 2;
    int64_t count = binaries(arena, t->watch_head, literal, partners, room);
    if (count > threshold)
        return count;
    if (count > room)
        return -1;
    int64_t total = count;
    for (int64_t index = count - 1; index >= 0 && total <= threshold; index--)
        total += binaries(arena, t->watch_head, partners[index] ^ 1, partners, 0);
    return total;
}

/* The search loop (Solver.solve's, whose pure-Python steps are the
 * reference) runs until an event the solver must handle.  The state it
 * reads and leaves is one int64 vector shared with the solver, indexed
 * by the S_* words below; repro/solver/_kernel.py names them in this
 * order.
 */
enum {
    S_EXIT,                 /* out: why the loop returned (EXIT_*) */
    S_RESUME,               /* in: where it resumes (RESUME_*) */
    S_LITERAL,              /* in: the literal RESUME_DECISION or RESUME_ASSUME
                               enqueues; out: the last decision literal */
    S_OPTIONS,              /* in: OPT_* bits */
    S_TRAIL_LEN,            /* in/out: the trail and its propagation frontier */
    S_QHEAD,
    S_LEVELS,               /* in/out: decision levels (trail_limits entries) */
    S_LEARNED_LEN,          /* in/out: the learned-ref stack */
    S_ARENA_LEN,            /* in/out: arena words in use */
    S_RECORDS,              /* in/out: entries of the per-record side arrays */
    S_CURSOR,               /* in/out: Solver.search_cursor */
    S_BIRTH,                /* in/out: Solver.birth_counter */
    S_CONFLICTS,            /* in/out: SolverStats counters */
    S_DECISIONS,
    S_PROPAGATIONS,
    S_LEARNED_TOTAL,
    S_LEARNED_UNITS,
    S_TOP_DECISIONS,
    S_MAX_LEVEL,
    S_PEAK_CLAUSES,
    S_PROOF_STEP,           /* in/out: the proof id the next logged step gets */
    S_NUM_CLAUSES,          /* in: live original records */
    S_NUM_VARIABLES,        /* in */
    S_WINDOW,               /* in: config.top_clause_window */
    S_NB_TWO_THRESHOLD,     /* in: config.nb_two_threshold */
    S_ASSUMPTIONS,          /* in: assumption levels of this solve call */
    S_CONFLICT_STOP,        /* in: exit after the conflict reaching this count */
    S_DECISION_STOP,        /* in: exit before a decision at this count */
    S_BASE_DECISIONS,       /* in: decisions when the solve call began */
    S_CLAUSE_STOP,          /* in: exit after a conflict at this many clauses */
    S_TRAIL_ROOM,           /* in: the length of each room buffer */
    S_LEVEL_ROOM,
    S_LEARNED_ROOM,
    S_ARENA_ROOM,
    S_RECORD_ROOM,
    S_LOG_ROOM,
    S_SKIN_ROOM,
    S_LOG_LEN,              /* out: words written to each log this call */
    S_SKIN_LEN,
    S_FORMULA_DECISIONS,    /* out: formula-level decisions this call */
    S_CHOICE,               /* out: what EXIT_CHOOSE asks for (CHOOSE_*) */
    S_VARIABLE,             /* out: its variable and, for CHOOSE_TOP, */
    S_REF,                  /*      the top clause the variable was met in */
    S_DISTANCE,             /* out: the last scan's skin distance, or -1 */
    S_CONFLICT_LEVEL,       /* out: the last conflict's decision level, */
    S_LEARNT_SIZE,          /*      learnt-clause size (the literals stay */
    S_LBD,                  /*      in t->learnt), LBD and backjump level */
    S_BACKJUMP,
    S_WORDS
};

/* Why arena_search returned. */
enum {
    EXIT_UNSAT,             /* a conflict at level 0 */
    EXIT_SAT,               /* no free variable is left */
    EXIT_CONFLICT,          /* after a conflict whose post-conflict work is due */
    EXIT_PREDECIDE,         /* before a decision: a level-0 import, an assumption
                               level, the decision budget or a 512-decision mark */
    EXIT_CHOOSE,            /* the solver chooses the decision literal */
    EXIT_DECIDED,           /* after a decision (step mode) */
    EXIT_ROOM,              /* a room buffer cannot take one more step */
    EXIT_NO_REASON          /* analysis met a missing reason */
};

/* Where it resumes: the top (propagation), the decision scan after
 * EXIT_PREDECIDE, or the enqueue of the literal the solver chose for a
 * decision or an assumption level.
 */
enum { RESUME_TOP, RESUME_DECIDE, RESUME_DECISION, RESUME_ASSUME };

/* What EXIT_CHOOSE asks for: the phase on S_VARIABLE of top clause S_REF
 * (Section 7), the formula-level phase of S_VARIABLE, the draw between
 * the phases of S_VARIABLE, whose nb_two costs tie, or a whole decision
 * under a strategy the loop does not run (vsids, random).
 */
enum { CHOOSE_TOP, CHOOSE_FORMULA, CHOOSE_TIE, CHOOSE_STRATEGY };

/* S_OPTIONS bits; the low three are analyze's options. */
#define OPT_BUMP_RESPONSIBLE 1  /* var_activity bumps over responsible clauses */
#define OPT_MINIMIZE 2     /* self-subsumption minimization */
#define OPT_HINTS 4        /* proof hints; the loop logs every learnt clause */
#define OPT_TOP_CLAUSE 8   /* berkmin decisions (else global) */
#define OPT_DECIDE 16      /* the berkmin or global scan runs here */
#define OPT_SYMMETRIZE 32  /* the symmetrize phase runs here */
#define OPT_STEP 64        /* exit after every conflict and decision */
#define OPT_SHARE 128      /* exit before a decision at level 0 */
#define OPT_NB_TWO 256     /* the nb_two formula phase runs here */

#define LBD_SHIFT 3
#define NO_PROOF_ID 2147483647

/* The buffers the loop appends to, each padded by the solver with room
 * (their lengths are the S_*_ROOM words).  The logs start empty every
 * call and the solver drains them at every exit.
 */
struct room {
    int32_t *arena;
    int32_t *trail;
    int32_t *trail_limits;
    int32_t *learned;
    double *clause_act;
    int32_t *clause_id;
    int32_t *clause_birth;
    int32_t *proof_log;  /* per learnt clause: size, hint count, literals, hints */
    int32_t *skin;       /* the skin distance of every top-clause decision */
};

/* Run the search from S_RESUME until an exit; returns the exit code.
 *
 * Each pass propagates.  A conflict at level 0 ends the search; any
 * other is analyzed and backtracked (analyze) and its clause recorded as
 * Solver._record_learned does: the proof-log entry, then a unit at the
 * backjump level, or the record, its watches, its side-array entries and
 * its asserting literal.  At a fixpoint the loop decides: the berkmin or
 * global scan (decide), then the symmetrize phase on a top clause or the
 * nb_two phase at the formula level, and enqueues the literal at a new
 * level.  It returns before the pass when a room buffer
 * could not take one more worst-case step, and at every event listed
 * under EXIT_*, leaving the state as the reference steps leave it there.
 */
int32_t arena_search(const struct tables *t, const struct room *r, int64_t *s)
{
    int32_t *arena = r->arena;
    int32_t *trail = r->trail;
    int32_t *limits = r->trail_limits;
    int32_t *learned = r->learned;
    int32_t *learnt = t->learnt;
    const int32_t options = (int32_t) s[S_OPTIONS];
    const int32_t num_variables = (int32_t) s[S_NUM_VARIABLES];
    const int32_t window = (int32_t) s[S_WINDOW];
    const int64_t threshold = s[S_NB_TWO_THRESHOLD];
    const int32_t assumptions = (int32_t) s[S_ASSUMPTIONS];
    const int64_t num_clauses = s[S_NUM_CLAUSES];
    const int64_t conflict_stop = s[S_CONFLICT_STOP];
    const int64_t decision_stop = s[S_DECISION_STOP];
    const int64_t base_decisions = s[S_BASE_DECISIONS];
    const int64_t clause_stop = s[S_CLAUSE_STOP];
    /* What one more step may write, worst case. */
    const int64_t record_words = HDR + (int64_t) num_variables;
    const int64_t log_words = (options & OPT_HINTS) ? 3 + 2 * (int64_t) num_variables : 0;
    int32_t resume = (int32_t) s[S_RESUME];
    int32_t literal = (int32_t) s[S_LITERAL];
    int32_t trail_len = (int32_t) s[S_TRAIL_LEN];
    int32_t qhead = (int32_t) s[S_QHEAD];
    int32_t levels = (int32_t) s[S_LEVELS];
    int32_t learned_len = (int32_t) s[S_LEARNED_LEN];
    int32_t arena_len = (int32_t) s[S_ARENA_LEN];
    int32_t records = (int32_t) s[S_RECORDS];
    int32_t cursor = (int32_t) s[S_CURSOR];
    int64_t birth = s[S_BIRTH];
    int64_t conflicts = s[S_CONFLICTS];
    int64_t decisions = s[S_DECISIONS];
    int64_t propagations = s[S_PROPAGATIONS];
    int64_t learned_total = s[S_LEARNED_TOTAL];
    int64_t learned_units = s[S_LEARNED_UNITS];
    int64_t top_decisions = s[S_TOP_DECISIONS];
    int64_t max_level = s[S_MAX_LEVEL];
    int64_t peak = s[S_PEAK_CLAUSES];
    int64_t proof_step = s[S_PROOF_STEP];
    int64_t log_len = 0, skin_len = 0, formula_decisions = 0;
    int32_t code;

    for (;; resume = RESUME_TOP) {
        if (resume == RESUME_ASSUME) {
            limits[levels++] = trail_len;
            if (t->lit_value[literal] == -1)
                assign(t, trail, &trail_len, literal, -1, levels);
            continue;
        }
        if (resume == RESUME_TOP) {
            if (s[S_ARENA_ROOM] - arena_len < record_words
                    || s[S_LEARNED_ROOM] - learned_len < 1
                    || s[S_RECORD_ROOM] - records < 1
                    || s[S_LOG_ROOM] - log_len < log_words
                    || s[S_SKIN_ROOM] - skin_len < 1) {
                code = EXIT_ROOM;
                break;
            }
            int32_t conflict;
            int32_t implied = propagate(
                t, arena, trail, qhead, trail_len, levels, trail + trail_len, &conflict);
            trail_len += implied;
            qhead = trail_len;
            propagations += implied;
            if (conflict >= 0) {
                conflicts++;
                if (levels == 0) {
                    code = EXIT_UNSAT;
                    break;
                }
                int32_t size = analyze(
                    t, arena, trail, r->clause_act, r->clause_id, conflict,
                    trail_len, levels,
                    options & (OPT_BUMP_RESPONSIBLE | OPT_MINIMIZE | OPT_HINTS));
                if (size < 0) {
                    code = EXIT_NO_REASON;
                    break;
                }
                int32_t backjump = t->out[0];
                int32_t lbd = t->out[1];
                s[S_CONFLICT_LEVEL] = levels;
                s[S_LEARNT_SIZE] = size;
                s[S_LBD] = lbd;
                s[S_BACKJUMP] = backjump;
                trail_len = qhead = t->out[2];
                levels = backjump;

                learned_total++;
                int32_t proof_id = NO_PROOF_ID;
                if (options & OPT_HINTS) {
                    int32_t hint_count = t->out[3];
                    int32_t *entry = r->proof_log + log_len;
                    entry[0] = size;
                    entry[1] = hint_count;
                    for (int32_t index = 0; index < size; index++)
                        entry[2 + index] = learnt[index];
                    for (int32_t index = 0; index < hint_count; index++)
                        entry[2 + size + index] = t->hints[index];
                    log_len += 2 + size + hint_count;
                    proof_id = (int32_t) proof_step++;
                }
                if (size == 1) {
                    learned_units++;
                    assign(t, trail, &trail_len, learnt[0], -1, levels);
                } else {
                    int32_t ref = arena_len;
                    arena[ref] = size;
                    arena[ref + 1] = (lbd << LBD_SHIFT) | FLAG_LEARNED;
                    arena[ref + 2] = records;
                    arena[ref + 3] = 2;
                    for (int32_t index = 0; index < size; index++)
                        arena[ref + HDR + index] = learnt[index];
                    arena_len = ref + HDR + size;
                    attach(arena, t->watch_head, ref);
                    r->clause_act[records] = 0.0;
                    r->clause_id[records] = proof_id;
                    r->clause_birth[records] = (int32_t) birth++;
                    records++;
                    learned[learned_len++] = ref;
                    assign(t, trail, &trail_len, learnt[0], ref, levels);
                    propagations++;
                }
                cursor = learned_len - 1;
                if (num_clauses + learned_len > peak)
                    peak = num_clauses + learned_len;
                if ((options & OPT_STEP) || conflicts >= conflict_stop
                        || num_clauses + learned_len >= clause_stop) {
                    code = EXIT_CONFLICT;
                    break;
                }
                continue;
            }
            if ((levels == 0 && (options & OPT_SHARE)) || levels < assumptions
                    || decisions >= decision_stop
                    || (decisions > base_decisions
                        && (decisions - base_decisions) % 512 == 0)) {
                code = EXIT_PREDECIDE;
                break;
            }
        }
        if (resume != RESUME_DECISION) {
            if (!(options & OPT_DECIDE)) {
                s[S_CHOICE] = CHOOSE_STRATEGY;
                s[S_DISTANCE] = -1;
                code = EXIT_CHOOSE;
                break;
            }
            int32_t top = learned_len - 1;
            int32_t start = !(options & OPT_TOP_CLAUSE) ? -1 : cursor < top ? cursor : top;
            int32_t topmost, ref;
            int32_t variable = decide(
                t, arena, learned, start, window, num_variables, &topmost, &ref);
            literal = -1;
            if (topmost < 0) {
                if (options & OPT_TOP_CLAUSE)
                    cursor = -1;
                s[S_DISTANCE] = -1;
                if (variable < 0) {
                    code = EXIT_SAT;
                    break;
                }
                formula_decisions++;
                s[S_CHOICE] = CHOOSE_FORMULA;
                if (options & OPT_NB_TWO) {
                    /* Falsify the literal with the larger cost, so that
                     * the branch propagates the most (Section 7).  The
                     * solver draws on a tie, and scores a literal with
                     * too many partners to keep itself. */
                    int64_t positive = nb_two(t, arena, 2 * variable, threshold, num_variables);
                    int64_t negative = nb_two(t, arena, 2 * variable + 1, threshold, num_variables);
                    if (positive >= 0 && negative >= 0) {
                        if (positive > negative)
                            literal = 2 * variable + 1;
                        else if (negative > positive)
                            literal = 2 * variable;
                        else
                            s[S_CHOICE] = CHOOSE_TIE;
                    }
                }
            } else {
                cursor = topmost;
                top_decisions++;
                r->skin[skin_len++] = top - topmost;
                s[S_DISTANCE] = top - topmost;
                s[S_CHOICE] = CHOOSE_TOP;
                s[S_REF] = ref;
                if ((options & OPT_SYMMETRIZE) && variable >= 0) {
                    /* Branch first on the value whose refutation would
                     * raise the less active literal's count (Section 7). */
                    double positive = t->lit_activity[2 * variable];
                    double negative = t->lit_activity[2 * variable + 1];
                    if (positive < negative)
                        literal = 2 * variable + 1;
                    else if (negative < positive)
                        literal = 2 * variable;
                }
            }
            if (literal < 0) { /* the solver chooses, as S_CHOICE says */
                s[S_VARIABLE] = variable;
                code = EXIT_CHOOSE;
                break;
            }
        }
        decisions++;
        limits[levels++] = trail_len;
        assign(t, trail, &trail_len, literal, -1, levels);
        if (levels > max_level)
            max_level = levels;
        s[S_LITERAL] = literal;
        if (options & OPT_STEP) {
            code = EXIT_DECIDED;
            break;
        }
    }

    s[S_EXIT] = code;
    s[S_TRAIL_LEN] = trail_len;
    s[S_QHEAD] = qhead;
    s[S_LEVELS] = levels;
    s[S_LEARNED_LEN] = learned_len;
    s[S_ARENA_LEN] = arena_len;
    s[S_RECORDS] = records;
    s[S_CURSOR] = cursor;
    s[S_BIRTH] = birth;
    s[S_CONFLICTS] = conflicts;
    s[S_DECISIONS] = decisions;
    s[S_PROPAGATIONS] = propagations;
    s[S_LEARNED_TOTAL] = learned_total;
    s[S_LEARNED_UNITS] = learned_units;
    s[S_TOP_DECISIONS] = top_decisions;
    s[S_MAX_LEVEL] = max_level;
    s[S_PEAK_CLAUSES] = peak;
    s[S_PROOF_STEP] = proof_step;
    s[S_LOG_LEN] = log_len;
    s[S_SKIN_LEN] = skin_len;
    s[S_FORMULA_DECISIONS] = formula_decisions;
    return code;
}
