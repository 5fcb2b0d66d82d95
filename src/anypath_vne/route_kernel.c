/* Compiled route kernel: one anypath route-table miss, end to end.
 *
 * anypath.py builds this file into __pycache__/ and calls route_table through
 * ctypes.  It is a transcription of anypath._orient, anypath._sweep and
 * _expected_time on the arrays of a netmodel.Topology, and it must give the
 * same table float for float and tie for tie:
 *
 *   - both heaps key on (cost, node index), a total order, so any binary heap
 *     pops the entries in the order heapq does;
 *   - every float is computed with the Python kernel's operations in the
 *     Python kernel's order, and the build passes -ffp-contract=off, so no
 *     multiply-add is fused;
 *   - a route's links are counted with a bitset per node, and the reached
 *     nodes are ranked by (link count, cost, index).
 *
 * A NaN cost would make the Python heap's key non-total, so the kernel does
 * not imitate it: it returns ROUTE_NAN and anypath.py builds that table with
 * the Python kernel.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ROUTE_NAN (-1)
#define ROUTE_NO_MEMORY (-2)

typedef struct { double key; int node; } entry;
typedef struct { int links; double cost; int node; } rank_key;

static int before(entry a, entry b)
{
    return a.key < b.key || (a.key == b.key && a.node < b.node);
}

static void push(entry *heap, int *size, double key, int node)
{
    entry e = {key, node};
    int i = (*size)++;
    while (i > 0 && before(e, heap[(i - 1) / 2])) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    heap[i] = e;
}

static entry pop(entry *heap, int *size)
{
    entry top = heap[0], last = heap[--*size];
    int i = 0, child;
    while ((child = 2 * i + 1) < *size) {
        if (child + 1 < *size && before(heap[child + 1], heap[child]))
            child++;
        if (!before(heap[child], last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
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

static int by_rank(const void *a, const void *b)
{
    const rank_key *x = a, *y = b;
    if (x->links != y->links)
        return x->links < y->links ? -1 : 1;
    if (x->cost != y->cost)
        return x->cost < y->cost ? -1 : 1;
    return x->node < y->node ? -1 : 1;
}

/* The route table toward node start over the links whose eligible byte is
 * nonzero.  adj_off, adj_link and adj_nbr hold Topology.adjacency row by row;
 * ends, pdr and delay are per arc, weight per link.  Writes cost[n], and the
 * forwarding sets flat: node v's arcs, in priority order, are
 * fwd_arcs[fwd_start[v]:fwd_start[v + 1]], so fwd_start has n + 1 entries and
 * fwd_arcs room for adj_off[n].  The reached nodes go to order in settle
 * order and to ranked.  Returns how many nodes were reached, ROUTE_NAN or
 * ROUTE_NO_MEMORY. */
int route_table(int n, int n_links, const int *adj_off, const int *adj_link,
                const int *adj_nbr, const int *ends, const double *weight,
                const double *pdr, const double *delay, const char *eligible,
                int start, double *cost, int *fwd_start, int *fwd_arcs,
                int *order, int *ranked)
{
    int words = (n_links + 63) / 64, size = 0, reached = 0, at = 0, status;
    double *dist = malloc(n * sizeof *dist);
    int *inc_len = calloc(n, sizeof *inc_len);
    int *incoming = malloc((adj_off[n] + 1) * sizeof *incoming);
    char *settled = calloc(n, 1);
    entry *heap = malloc((adj_off[n] + 1) * sizeof *heap);
    uint64_t *masks = malloc((size_t)n * words * sizeof *masks + 1);
    int *links = malloc(n * sizeof *links);
    rank_key *keys = malloc(n * sizeof *keys);
    if (!dist || !inc_len || !incoming || !settled || !heap || !masks || !links || !keys) {
        status = ROUTE_NO_MEMORY;
        goto done;
    }

    /* _orient: unicast Dijkstra toward start, orienting links as nodes settle */
    for (int i = 0; i < n; i++)
        dist[i] = INFINITY;
    dist[start] = 0.0;
    push(heap, &size, 0.0, start);
    while (size) {
        entry e = pop(heap, &size);
        int u = e.node;
        if (e.key > dist[u])
            continue;
        for (int j = adj_off[u]; j < adj_off[u + 1]; j++) {
            int link = adj_link[j], v = adj_nbr[j];
            double alt;
            if (!eligible[link])
                continue;
            if (dist[v] < e.key)
                incoming[adj_off[v] + inc_len[v]++] = 2 * link + (ends[2 * link + 1] == v);
            else if ((alt = e.key + weight[link]) < dist[v]) {
                dist[v] = alt;
                push(heap, &size, alt, v);
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
    push(heap, &size, 0.0, start);
    while (size) {
        entry e = pop(heap, &size);
        int u = e.node;
        uint64_t *mask = masks + (size_t)u * words;
        if (settled[u] || e.key != cost[u])
            continue;
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
            if (settled[pred] || cost[pred] <= e.key)
                continue;
            fwd_arcs[adj_off[pred] + fwd_start[pred]++] = arc;
            cost[pred] = expected_time(fwd_arcs + adj_off[pred], fwd_start[pred],
                                       pdr, delay, ends, cost);
            if (isnan(cost[pred])) {
                status = ROUTE_NAN;
                goto done;
            }
            push(heap, &size, cost[pred], pred);
        }
    }

    /* compact the sets in node order: a set holds at most its node's degree,
     * so each one moves down, or stays, and keeps its order */
    for (int v = 0; v < n; v++) {
        int count = fwd_start[v];
        memmove(fwd_arcs + at, fwd_arcs + adj_off[v], (size_t)count * sizeof *fwd_arcs);
        fwd_start[v] = at;
        at += count;
    }
    fwd_start[n] = at;

    /* rank the reached nodes by (link count, cost, index) */
    for (int i = 0; i < reached; i++) {
        keys[i].links = links[order[i]];
        keys[i].cost = cost[order[i]];
        keys[i].node = order[i];
    }
    qsort(keys, reached, sizeof *keys, by_rank);
    for (int i = 0; i < reached; i++)
        ranked[i] = keys[i].node;
    status = reached;
done:
    free(dist);
    free(inc_len);
    free(incoming);
    free(settled);
    free(heap);
    free(masks);
    free(links);
    free(keys);
    return status;
}
