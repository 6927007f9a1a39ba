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
 * The kernel's work queue is the unpropagated tail of the trail itself
 * (`trail[qhead .. trail_len)`), continued by `scratch`, where every
 * implied literal is appended.  Assignments (including their reasons)
 * are written straight into the shared buffers; the Python caller only
 * extends its trail with `scratch[0 .. tail)` afterwards.
 *
 * Returns the number of literals appended to `scratch` (== the number
 * of propagations performed).  out[0] is the conflicting ref (-1 at
 * fixpoint).
 */

#include <stdint.h>

#define HDR 8
#define FLAG_LEARNED 1
#define FLAG_DEAD 4

int32_t arena_propagate(
    int32_t *arena,
    int32_t *watch_head,
    int32_t *lit_value,
    int32_t *assigns,
    int32_t *levels,
    int32_t *reasons,
    int32_t *trail,
    int32_t qhead,
    int32_t trail_len,
    int32_t *scratch,
    int32_t level,
    int32_t *out)
{
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
    out[0] = conflict;
    return tail;
}

/* Undo the assignments of trail[limit .. trail_len) (backtracking); the
 * caller truncates its trail afterwards.
 */
void arena_backtrack(
    int32_t *trail,
    int32_t limit,
    int32_t trail_len,
    int32_t *assigns,
    int32_t *lit_value,
    int32_t *reasons)
{
    for (int32_t index = trail_len - 1; index >= limit; index--) {
        int32_t literal = trail[index];
        int32_t variable = literal >> 1;
        assigns[variable] = -1;
        lit_value[literal] = -1;
        lit_value[literal ^ 1] = -1;
        reasons[variable] = -1;
    }
}

/* The most active unassigned variable of one record (BerkMin top-clause
 * branching); first occurrence wins ties, -1 when every literal is
 * assigned.
 */
int32_t arena_best_var(
    int32_t *arena,
    int32_t ref,
    int32_t *assigns,
    double *var_activity)
{
    int32_t base = ref + HDR;
    int32_t end = base + arena[ref];
    int32_t best = -1;
    double best_score = -1.0;
    for (int32_t position = base; position < end; position++) {
        int32_t variable = arena[position] >> 1;
        if (assigns[variable] == -1 && var_activity[variable] > best_score) {
            best_score = var_activity[variable];
            best = variable;
        }
    }
    return best;
}

/* First-UIP resolution walk (the hot half of conflict analysis).
 *
 * `reasons[variable]` is the implying ref or -1; `seen` is the
 * per-variable mark buffer, left SET for every variable written to
 * `to_clear` (the Python caller clears it after optional clause
 * minimization, which needs the marks).  Responsible-clause activity
 * bumps (var_activity, clause_act — both doubles, matching the
 * array('d') side buffers) happen here when `bump_responsible`; the
 * per-learnt-literal bumps depend on the minimized clause and stay in
 * Python.
 *
 * Writes the learnt clause to `learnt` (position 0 = the asserting
 * literal, already negated), the marked variables to `to_clear`, and
 * their counts to out[0] / out[1].  Returns 0, or -1 when a needed
 * reason is missing (the caller raises).
 */
int32_t arena_analyze(
    int32_t *arena,
    int32_t *trail,
    int32_t trail_len,
    int32_t *reasons,
    int32_t *levels,
    int32_t *seen,
    double *var_activity,
    double *clause_act,
    int32_t conflict,
    int32_t current_level,
    int32_t bump_responsible,
    int32_t *learnt,
    int32_t *to_clear,
    int32_t *out)
{
    int32_t clause = conflict;
    int32_t unresolved = 0;
    int32_t index = trail_len - 1;
    int32_t resolved_variable = -1;
    int32_t learnt_len = 1; /* position 0 reserved for the asserting literal */
    int32_t clear_len = 0;
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
                to_clear[clear_len++] = variable;
                if (levels[variable] >= current_level)
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
        clause = reasons[variable];
        seen[variable] = 0;
        unresolved--;
        index--;
        if (unresolved == 0)
            break;
    }
    learnt[0] = asserting ^ 1;
    out[0] = learnt_len;
    out[1] = clear_len;
    return 0;
}

/* The BerkMin top-clause scan: the index of the topmost learned record
 * at position <= start whose literals are all non-true, or -1.
 */
int32_t arena_top_unsat(
    int32_t *arena,
    int32_t *learned,
    int32_t start,
    int32_t *lit_value)
{
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
        if (!satisfied)
            return index;
    }
    return -1;
}
