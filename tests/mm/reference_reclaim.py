"""The snapshot reclaim scan, kept as a test-only reference.

``ReclaimController._scan_inactive`` used to copy the whole inactive
list for every pass, even a pass that visits one batch of 32 pages.  It
now copies only the run of keys it is about to visit; this module keeps
the snapshot loop so ``test_reclaim_equivalence.py`` can run both from
identical states and require identical results.
"""

from types import MethodType

from repro.mm.reclaim import (
    HINT_CLEAR,
    HINT_COLD,
    HINT_KEEP,
    HOOK_MM_EVICT,
    SWAP_CLUSTER_MAX,
    VERDICT_VETO,
)


def snapshot_scan_inactive(self, nr_to_reclaim: int, desperate: bool) -> int:
    """shrink_inactive_list over a snapshot of the current inactive
    order; rotations within the pass are not revisited."""
    hook = self.kprobes.hook(HOOK_MM_EVICT)
    policy = bool(hook.programs) and not desperate
    batch_cap = max(nr_to_reclaim, SWAP_CLUSTER_MAX)
    candidates: list[tuple[tuple, tuple[int, int], object]] = []
    freed = 0
    for seq, key in enumerate(list(self.lru.inactive)):
        if policy:
            if len(candidates) >= batch_cap:
                break
        elif freed >= nr_to_reclaim:
            break
        entry = self.lru.inactive.get(key)
        if entry is None:
            continue
        self._m_scanned.inc()
        if entry.locked:
            self.lru.rotate(key)
            self._m_rotations.inc()
            continue
        if entry.frame.mapcount > 0:
            self.lru.activate(key)
            self._m_activations.inc()
            continue
        hint = self.hints.get(key[0], key[1], HINT_CLEAR)
        if not desperate:
            if hint == HINT_KEEP:
                self.lru.rotate(key)
                self._m_hint_keeps.inc()
                continue
            if entry.referenced and hint != HINT_COLD:
                entry.referenced = False
                self.lru.rotate(key)
                self._m_rotations.inc()
                continue
        if policy:
            verdict = self._policy_verdict(key, nr_to_reclaim - freed)
            if verdict == VERDICT_VETO:
                self.lru.rotate(key)
                self._m_policy_vetoes.inc()
                continue
            sort_key = ((0, seq) if hint == HINT_COLD
                        else (1, verdict, seq))
            candidates.append((sort_key, key, entry))
        else:
            self._evict(key, entry)
            freed += 1
    if policy:
        candidates.sort(key=lambda item: item[0])
        for _sort_key, key, entry in candidates:
            if freed >= nr_to_reclaim:
                break
            self._evict(key, entry)
            freed += 1
    return freed


def use_snapshot_scan(controller) -> None:
    """Make ``controller`` scan with the snapshot loop from now on."""
    controller._scan_inactive = MethodType(snapshot_scan_inactive, controller)
