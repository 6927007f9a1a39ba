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
 * The per-variable and per-literal buffers, and the scratch the hot
 * kernels write their results to, reach the kernels through one
 * address table (`struct tables`).  The solver keeps it cached and
 * refreshes it wherever one of those buffers can move; the arena, the
 * trail, the learned-ref stack and the clause activities move on
 * append, so they are passed per call.
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
    int32_t *level_marks;  /* per decision level, zero between calls */
    int32_t *out;          /* out-params, four words */
};

/* Propagate to fixpoint (BCP) over the watch chains.
 *
 * The work queue is the unpropagated tail of the trail itself
 * (`trail[qhead .. trail_len)`), continued by `t->implied`, where every
 * implied literal is appended.  Assignments (including their reasons)
 * are written straight into the shared buffers; the Python caller only
 * extends its trail with `implied[0 .. tail)` afterwards.
 *
 * Returns the number of literals appended to `implied` (== the number
 * of propagations performed).  out[0] is the conflicting ref (-1 at
 * fixpoint).
 */
int32_t arena_propagate(
    const struct tables *t,
    int32_t *arena,
    int32_t *trail,
    int32_t qhead,
    int32_t trail_len,
    int32_t level)
{
    int32_t *watch_head = t->watch_head;
    int32_t *lit_value = t->lit_value;
    int32_t *assigns = t->assigns;
    int32_t *levels = t->levels;
    int32_t *reasons = t->reasons;
    int32_t *scratch = t->implied;
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
    t->out[0] = conflict;
    return tail;
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

/* One conflict, from analysis to backtrack (Solver._analyze followed by
 * Solver._backtrack, whose pure-Python loops are the reference).
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
 * Writes the learnt clause to t->learnt (position 0 is the asserting
 * literal, already negated) and returns its size, or -1 when a needed
 * reason is missing (the caller raises).  out[0] is the backjump level,
 * out[1] the LBD and out[2] the trail length after the backtrack.
 */
int32_t arena_conflict(
    const struct tables *t,
    int32_t *arena,
    int32_t *trail,
    double *clause_act,
    int32_t conflict,
    int32_t trail_len,
    int32_t level,
    int32_t options)
{
    int32_t *levels = t->levels;
    int32_t *seen = t->seen;
    int32_t *learnt = t->learnt;
    int32_t *marked = t->marked;
    double *var_activity = t->var_activity;
    int32_t bump_responsible = options & 1;
    int32_t clause = conflict;
    int32_t unresolved = 0;
    int32_t index = trail_len - 1;
    int32_t resolved_variable = -1;
    int32_t learnt_len = 1; /* position 0 reserved for the asserting literal */
    int32_t marked_len = 0;
    int32_t asserting = -1;

    for (;;) {
        if (clause < 0)
            return -1;
        int32_t ref = clause;
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
         * is marked or at level 0 (marks of dropped literals stay set).
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
            if (!redundant)
                learnt[kept++] = literal;
        }
        learnt_len = kept;
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
    return learnt_len;
}

/* Link both watch slots of one record at the head of their literals'
 * chains, each blocker seeded with the companion watch (Python's
 * Solver._attach_ref, minus the binary implication lists).
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
 * database reduction or an arena GC).  The literal pair of every binary
 * record goes to `pairs`; returns the number of pairs, which the caller
 * appends to its binary implication lists.
 */
int32_t arena_attach(
    int32_t *arena,
    int32_t *watch_head,
    int32_t *refs,
    int32_t count,
    int32_t *pairs)
{
    int32_t binaries = 0;
    for (int32_t index = 0; index < count; index++) {
        int32_t ref = refs[index];
        attach(arena, watch_head, ref);
        if (arena[ref] == 2) {
            pairs[2 * binaries] = arena[ref + HDR];
            pairs[2 * binaries + 1] = arena[ref + HDR + 1];
            binaries++;
        }
    }
    return binaries;
}

/* Load clauses first .. count-1 of a formula at decision level 0, doing
 * for each what Solver.add_clause does there: drop a tautology, remove
 * repeated literals (first occurrence kept), skip a clause a level-0
 * literal satisfies, strip level-0-false literals, assign a unit, or
 * write an original record and thread both of its watches.
 *
 * `lits` holds the DIMACS literals of every clause back to back, `sizes`
 * the clause lengths; clause `first` starts at lits[offset].  Records are
 * written from arena[arena_len], which the caller has sized for the worst
 * case; activity indices count up from `act_idx`.  `seen` is the
 * per-variable mark buffer, zero on entry and on return.
 *
 * The scan stops at a clause it cannot finish — a literal 0 or a
 * variable past `num_variables`, or a clause that strips to empty — and
 * returns that clause's index (count when every clause was loaded); the
 * caller runs add_clause on it and resumes after it.  Outputs: the refs
 * of new records in `refs`, the assigned unit literals in `units` (the
 * trail's continuation), the refs of records shorter than their input
 * clause in `shortened` (each needs a proof line), the literal pairs of
 * binary records in `pairs`, and in out[0 .. 5) the new arena length
 * and the counts of refs, units, shortened refs and pairs; out[5] is the
 * offset in `lits` of the clause the scan stopped at.
 */
int32_t arena_load(
    int32_t *lits,
    int32_t *sizes,
    int32_t first,
    int32_t count,
    int32_t offset,
    int32_t num_variables,
    int32_t *arena,
    int32_t arena_len,
    int32_t act_idx,
    int32_t *watch_head,
    int32_t *lit_value,
    int32_t *assigns,
    int32_t *levels,
    int32_t *reasons,
    int32_t *seen,
    int32_t *refs,
    int32_t *units,
    int32_t *shortened,
    int32_t *pairs,
    int32_t *out)
{
    int32_t ref_count = 0, unit_count = 0, short_count = 0, pair_count = 0;
    int32_t clause = first;

    for (; clause < count; clause++) {
        int32_t size = sizes[clause];
        int32_t *source = lits + offset;
        int32_t in_range = 1;
        for (int32_t index = 0; index < size; index++) {
            int32_t literal = source[index];
            if (literal == 0 || literal > num_variables || literal < -num_variables) {
                in_range = 0;
                break;
            }
        }
        if (!in_range)
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
        if (tautology) {
            offset += size;
            continue;
        }

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
        if (satisfied) {
            offset += size;
            continue;
        }
        if (remaining == 0)
            break; /* refutes the formula: add_clause logs it */
        if (remaining == 1) {
            int32_t literal = body[0];
            int32_t variable = literal >> 1;
            assigns[variable] = (literal & 1) ^ 1;
            lit_value[literal] = 1;
            lit_value[literal ^ 1] = 0;
            levels[variable] = 0;
            reasons[variable] = -1;
            units[unit_count++] = literal;
            offset += size;
            continue;
        }
        if (remaining < size)
            shortened[short_count++] = ref;
        arena[ref] = remaining;
        arena[ref + 1] = 0;
        arena[ref + 2] = act_idx++;
        arena[ref + 3] = 2;
        attach(arena, watch_head, ref);
        if (remaining == 2) {
            pairs[2 * pair_count] = body[0];
            pairs[2 * pair_count + 1] = body[1];
            pair_count++;
        }
        refs[ref_count++] = ref;
        arena_len = ref + HDR + remaining;
        offset += size;
    }
    out[0] = arena_len;
    out[1] = ref_count;
    out[2] = unit_count;
    out[3] = short_count;
    out[4] = pair_count;
    out[5] = offset;
    return clause;
}

/* One decision scan (Solver._berkmin_decision without its phase choice,
 * and Solver._most_active_free; their pure-Python loops are the
 * reference).
 *
 * From learned-stack index `start` down, collect the first `window`
 * records (at least one) with no true literal; the most active free
 * variable among their literals wins, the first one met on ties,
 * scanning the topmost record first.  out[0] is the stack index of the
 * topmost record collected and out[1] the ref of the record the winner
 * was met in.  With start < 0, or when every record down to the bottom
 * is satisfied, out[0] is -1 and the winner is the most active free
 * variable that is not eliminated, the smallest on ties.
 *
 * Returns the winning variable, or -1 when there is none.
 */
int32_t arena_decide(
    const struct tables *t,
    int32_t *arena,
    int32_t *learned,
    int32_t start,
    int32_t window,
    int32_t num_variables)
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
    t->out[0] = topmost;
    t->out[1] = best_ref;
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
