/* Compiled route kernel: one anypath route-table miss, end to end.
 *
 * anypath.py builds this file into __pycache__/ and calls route_table through
 * ctypes.  It is a transcription of anypath._orient, anypath._sweep and
 * _expected_time on the arrays of a netmodel.Topology, which it reads in
 * place, and it must give the same table float for float and tie for tie:
 *
 *   - both Dijkstras keep one heap entry per node, keyed on (cost, node
 *     index), a total order.  An entry carries its key, copied in when the
 *     node is inserted or repriced, and a pop walks the hole at the root down
 *     to a leaf along the lesser child, then sifts the last entry up from
 *     there (Floyd, CACM 1964).  heapq's live entries are exactly (cost[u], u)
 *     for the unsettled nodes it has reached, and no popped node is updated
 *     again (in orient, d + w >= d; in the sweep, a settled node is skipped).
 *     The least entry of a total order is unique, whatever the heap's shape,
 *     so each pop takes heapq's next live entry and the kernel pops heapq's
 *     sequence without its stale entries;
 *   - every float is computed with the Python kernel's operations in the
 *     Python kernel's order, and the build passes -ffp-contract=off, so no
 *     multiply-add is fused;
 *   - a route's links are counted with a bitset per node, and the reached
 *     nodes are ranked by (link count, cost, index): a stable counting sort
 *     of settle order by link count, then an insertion sort.  In exact
 *     arithmetic the sweep settles in ascending (cost, index): a node priced
 *     at D_old > c that adds the head settled at c reprices to D_new with
 *     D_new*rel_new >= rel_old*D_old + p*(1 - rel_old)*c > c*rel_new, so the
 *     insertion sort only mends rounding and is linear in practice.
 *
 * A NaN cost would make the Python heap's key non-total, so the kernel does
 * not imitate it: it returns ROUTE_NAN, and anypath.py raises
 * FloatingPointError instead of building that table another way.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ROUTE_NAN (-1)
#define ROUTE_NO_MEMORY (-2)

/* A binary min-heap of nodes on (key, node), a total order.  An entry carries
 * its node's key, copied in by update, so a comparison reads one entry, not
 * key[] through slot[]; pos[v] is v's place in slot[], or -1 when v is not
 * in it. */
typedef struct { double key; int node; } entry;
typedef struct { entry *slot; int *pos, size; const double *key; } heap;

static int before(entry a, entry b)
{
    return (a.key < b.key) | ((a.key == b.key) & (a.node < b.node));
}

/* Fill hole i with e, after moving down the parents that e goes before. */
static void sift_up(heap *h, int i, entry e)
{
    for (int parent; i > 0 && before(e, h->slot[parent = (i - 1) / 2]); i = parent) {
        h->slot[i] = h->slot[parent];
        h->pos[h->slot[i].node] = i;
    }
    h->slot[i] = e;
    h->pos[e.node] = i;
}

/* Insert v, or move it after its key fell (up) or rose (down). */
static void update(heap *h, int v)
{
    entry e = {h->key[v], v};
    int i = h->pos[v], child;
    if (i < 0 || before(e, h->slot[i])) {
        sift_up(h, i < 0 ? h->size++ : i, e);
        return;
    }
    for (; (child = 2 * i + 1) < h->size; i = child) {
        child += child + 1 < h->size && before(h->slot[child + 1], h->slot[child]);
        if (!before(h->slot[child], e))
            break;
        h->slot[i] = h->slot[child];
        h->pos[h->slot[i].node] = i;
    }
    h->slot[i] = e;
    h->pos[v] = i;
}

/* Floyd's pop: walk the hole at the root down to a leaf along the lesser
 * child, one comparison a level, then sift the last entry up from there. */
static int pop(heap *h)
{
    int top = h->slot[0].node, i = 0, child;
    entry last = h->slot[--h->size];
    for (; (child = 2 * i + 2) < h->size; i = child) {
        child -= before(h->slot[child - 1], h->slot[child]);
        h->slot[i] = h->slot[child];
        h->pos[h->slot[i].node] = i;
    }
    if (child == h->size) {    /* a left child alone */
        h->slot[i] = h->slot[--child];
        h->pos[h->slot[i].node] = i;
        i = child;
    }
    sift_up(h, i, last);
    h->pos[top] = -1;
    return top;
}

/* anypath._expected_time over count member arcs, operation for operation. */
static double expected_time(const int *members, int count, const double *pdr,
                            const double *delay, const int *ends, const double *cost)
{
    double miss = 1.0, worst = 0.0, reliability, remaining = 0.0, ahead = 1.0;
    for (int i = 0; i < count; i++) {
        miss *= 1.0 - pdr[members[i]];
        if (delay[members[i]] > worst)
            worst = delay[members[i]];
    }
    reliability = 1.0 - miss;
    for (int i = 0; i < count; i++) {
        double p = pdr[members[i]];
        remaining += p * ahead / reliability * cost[ends[members[i]]];
        ahead *= 1.0 - p;
    }
    return worst / reliability + remaining;
}

/* The route table toward node start over the links whose eligible byte is
 * nonzero.  adj_off, adj_link and adj_nbr are Topology.adj_start, .adj_link
 * and .adj_node: node u's links and neighbours, row adj_off[u]:adj_off[u + 1];
 * ends, pdr and delay are per arc, weight per link.  Writes cost[n], and the
 * forwarding sets flat: node v's arcs, in priority order, are
 * fwd_arcs[fwd_start[v]:fwd_start[v + 1]], so fwd_start has n + 1 entries and
 * fwd_arcs room for adj_off[n].  The reached nodes go to order in settle
 * order and to ranked.  An empty array may be passed as NULL, so with no
 * links adj_link, adj_nbr, ends, weight, pdr, delay and fwd_arcs may be.
 * Returns how many nodes were reached, ROUTE_NAN or ROUTE_NO_MEMORY. */
int route_table(int n, int n_links, const int *adj_off, const int *adj_link,
                const int *adj_nbr, const int *ends, const double *weight,
                const double *pdr, const double *delay, const char *eligible,
                int start, double *cost, int *fwd_start, int *fwd_arcs,
                int *order, int *ranked)
{
    int words = (n_links + 63) / 64, reached = 0, at = 0, status;
    double *dist = malloc(n * sizeof *dist);
    int *inc_len = calloc(n, sizeof *inc_len);
    int *incoming = malloc((adj_off[n] + 1) * sizeof *incoming);
    char *settled = calloc(n, 1);
    entry *slot = malloc(n * sizeof *slot);
    int *pos = malloc(n * sizeof *pos);
    uint64_t *masks = malloc((size_t)n * words * sizeof *masks + 1);
    int *links = malloc(n * sizeof *links);
    int *first = calloc(n_links + 1, sizeof *first);
    heap h = {slot, pos, 0, dist};
    if (!dist || !inc_len || !incoming || !settled || !slot || !pos || !masks || !links
        || !first) {
        status = ROUTE_NO_MEMORY;
        goto done;
    }

    /* _orient: unicast Dijkstra toward start, orienting links as nodes settle */
    for (int i = 0; i < n; i++) {
        dist[i] = INFINITY;
        pos[i] = -1;
    }
    dist[start] = 0.0;
    update(&h, start);
    while (h.size) {
        int u = pop(&h);
        for (int j = adj_off[u]; j < adj_off[u + 1]; j++) {
            int link = adj_link[j], v = adj_nbr[j];
            double alt;
            if (!eligible[link])
                continue;
            if (dist[v] < dist[u])
                incoming[adj_off[v] + inc_len[v]++] = 2 * link + (ends[2 * link + 1] == v);
            else if ((alt = dist[u] + weight[link]) < dist[v]) {
                dist[v] = alt;
                update(&h, v);
            }
        }
    }

    /* anypath._sweep: settle in ascending cost, growing node v's forwarding
     * set at fwd_arcs[adj_off[v]:], with its count in fwd_start[v] */
    for (int i = 0; i < n; i++) {
        cost[i] = INFINITY;
        fwd_start[i] = 0;
    }
    cost[start] = 0.0;
    h.key = cost;
    update(&h, start);
    while (h.size) {
        int u = pop(&h);
        uint64_t *mask = masks + (size_t)u * words;
        settled[u] = 1;
        order[reached++] = u;
        memset(mask, 0, words * sizeof *mask);
        for (int j = adj_off[u]; j < adj_off[u] + fwd_start[u]; j++) {
            const uint64_t *head = masks + (size_t)ends[fwd_arcs[j]] * words;
            for (int w = 0; w < words; w++)
                mask[w] |= head[w];
            mask[fwd_arcs[j] >> 7] |= (uint64_t)1 << ((fwd_arcs[j] >> 1) & 63);
        }
        links[u] = 0;
        for (int w = 0; w < words; w++)
            links[u] += __builtin_popcountll(mask[w]);
        for (int j = adj_off[u]; j < adj_off[u] + inc_len[u]; j++) {
            int arc = incoming[j], pred = ends[arc ^ 1];
            if (settled[pred] || cost[pred] <= cost[u])
                continue;
            fwd_arcs[adj_off[pred] + fwd_start[pred]++] = arc;
            cost[pred] = expected_time(fwd_arcs + adj_off[pred], fwd_start[pred],
                                       pdr, delay, ends, cost);
            if (isnan(cost[pred])) {
                status = ROUTE_NAN;
                goto done;
            }
            update(&h, pred);
        }
    }

    /* compact the sets in node order: a set holds at most its node's degree,
     * so each one moves down, or stays, and keeps its order.  With no links
     * fwd_arcs may be NULL, which memmove may not be given even for 0 */
    for (int v = 0; v < n; v++) {
        int count = fwd_start[v];
        if (count)
            memmove(fwd_arcs + at, fwd_arcs + adj_off[v], (size_t)count * sizeof *fwd_arcs);
        fwd_start[v] = at;
        at += count;
    }
    fwd_start[n] = at;

    /* rank the reached nodes by (link count, cost, index): a stable counting
     * sort of settle order by link count, which is at most n_links, then an
     * insertion sort by the whole key */
    for (int i = 0; i < reached; i++)
        first[links[order[i]]]++;
    for (int k = 0, sum = 0; k <= n_links; k++) {
        int run = first[k];
        first[k] = sum;
        sum += run;
    }
    for (int i = 0; i < reached; i++)
        ranked[first[links[order[i]]]++] = order[i];
    for (int i = 1; i < reached; i++) {
        int v = ranked[i], j = i;
        entry e = {cost[v], v};
        for (; j > 0 && links[ranked[j - 1]] == links[v]
               && before(e, (entry){cost[ranked[j - 1]], ranked[j - 1]}); j--)
            ranked[j] = ranked[j - 1];
        ranked[j] = v;
    }
    status = reached;
done:
    free(dist);
    free(inc_len);
    free(incoming);
    free(settled);
    free(slot);
    free(pos);
    free(masks);
    free(links);
    free(first);
    return status;
}
