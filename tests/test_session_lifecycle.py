"""A session's lifecycle as a state machine: blocks encrypted with and
without traces, masks applied, masked blocks and both trace exports, in
any order.  A twin session replays every step, so the two must agree on
everything they report."""

import io

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from memgift.crossbar import DeviceParams
from memgift.gift import GIFT64, GIFT128, GIFT_SBOX, encrypt_block
from memgift.masking import (
    MaskMismatchError,
    apply_mask,
    encrypt_masked,
    remask_sbox,
    replicate_mask,
)
from memgift.pipeline import EncryptionSession, export_analog_trace, export_round_trace

DEVICES = [
    DeviceParams(),
    DeviceParams(wire_r_per_cell=150.0),
    DeviceParams(sigma_d2d=0.03, seed=6),
]
# traced blocks kept for the exports; older ones are dropped
KEPT_BLOCKS = 3


def written(export, *args) -> str:
    fp = io.StringIO()
    export(*args, fp)
    return fp.getvalue()


def round_records(session, traces) -> str:
    """A round trace without its header, which states the session's mask
    at export time."""
    header, _, records = written(export_round_trace, session, traces).partition("\n")
    assert header.startswith('{"record": "session"')
    return records


class SessionLifecycle(RuleBasedStateMachine):
    @initialize(
        variant=st.sampled_from([GIFT64, GIFT128]),
        scheme=st.sampled_from(["sxor", "dxor"]),
        params=st.sampled_from(DEVICES),
        key=st.integers(0, (1 << 128) - 1),
    )
    def start(self, variant, scheme, params, key):
        self.variant, self.key, self.params = variant, key, params
        self.session, self.twin = (
            EncryptionSession(key, variant, scheme, params) for _ in range(2)
        )
        # every S-box cell, and a partner per round on each key column: two
        # key columns a slice, three on the 7 round-constant slices
        self.writes = variant.nibbles * 64 + variant.rounds * (2 * variant.nibbles + 7)
        self.blocks = 0
        self.traced = []  # (session's traces, twin's traces), one pair per kept block
        self.exported = {}  # a block's record -> (round text, analog text)
        self.masked_cells = {}  # mask -> fingerprint, on nominal devices

    def run(self, step):
        """One step on the session, then on the twin: both results."""
        return step(self.session), step(self.twin)

    def keep(self, traces, twin_traces, post_state):
        """Check a block's traces, whose last round leaves post_state, and
        keep them for the exports."""
        if not traces:
            return
        assert [t.round_index for t in traces] == list(range(self.variant.rounds))
        assert {(t.block, t.active_mask) for t in traces} == {(self.blocks, self.session.mask)}
        assert traces[-1].post_state == post_state
        self.traced = (self.traced + [(traces, twin_traces)])[-KEPT_BLOCKS:]

    @rule(pt=st.integers(0, (1 << 128) - 1), trace=st.booleans())
    def encrypt(self, pt, trace):
        pt &= (1 << self.variant.block_bits) - 1
        (ct, traces), (twin_ct, twin_traces) = self.run(lambda s: s.encrypt(pt, trace))
        sbox = remask_sbox(GIFT_SBOX, self.session.mask)
        assert ct == twin_ct == encrypt_block(pt, self.key, self.variant, sbox)
        self.keep(traces, twin_traces, post_state=ct)
        self.blocks += 1

    @rule(mask=st.integers(0, 15))
    def mask(self, mask):
        self.run(lambda s: apply_mask(s, mask))
        self.writes += self.variant.nibbles * 64
        if self.params.sigma_d2d == 0:
            # nominal cells: the cells a mask writes are the mask's alone
            fingerprint = self.session.cell_fingerprint()
            assert self.masked_cells.setdefault(mask, fingerprint) == fingerprint

    @rule(pt=st.integers(0, (1 << 128) - 1), trace=st.booleans())
    def encrypt_masked(self, pt, trace):
        pt &= (1 << self.variant.block_bits) - 1
        mask = self.session.mask
        (ct, traces), (twin_ct, twin_traces) = self.run(
            lambda s: encrypt_masked(s, pt, mask, trace)
        )
        assert ct == twin_ct == encrypt_block(pt, self.key, self.variant)
        self.keep(traces, twin_traces, post_state=ct ^ replicate_mask(mask, self.variant.nibbles))
        self.blocks += 1

    @rule(pt=st.integers(0, (1 << 64) - 1), other=st.integers(1, 15))
    def encrypt_under_a_wrong_mask(self, pt, other):
        # refused before any read
        for session in (self.session, self.twin):
            try:
                encrypt_masked(session, pt, self.session.mask ^ other)
            except MaskMismatchError:
                continue
            raise AssertionError("a block was read under a mask the cells do not hold")

    @precondition(lambda self: self.traced)
    @rule()
    def export(self):
        blocks = [traces for traces, _ in self.traced]
        every = [t for traces in blocks for t in traces]
        texts = []
        for traces, twin_traces in self.traced:
            text = round_records(self.session, traces), written(export_analog_trace, traces)
            # stable: the same bytes as the block's last export and as its twin's
            assert self.exported.setdefault(traces[0].record, text) == text
            assert text == (
                round_records(self.twin, twin_traces), written(export_analog_trace, twin_traces)
            )
            texts.append(text)
        # an export of many blocks is its blocks' exports, concatenated
        assert round_records(self.session, every) == "".join(r for r, _ in texts)
        assert written(export_analog_trace, every) == "".join(a for _, a in texts)

    @invariant()
    def agree(self):
        for session in (self.session, self.twin):
            # the state carries the devices the session wrote its cells with
            assert session.state.params is self.params
            assert session.write_log.get("cell_write") == self.writes
            assert session.blocks_encrypted == self.blocks
            assert session.reads_executed == self.variant.rounds * self.blocks
        assert self.session.cell_fingerprint() == self.twin.cell_fingerprint()
        assert self.session.mask == self.twin.mask


TestSessionLifecycle = SessionLifecycle.TestCase
TestSessionLifecycle.settings = settings(max_examples=100, stateful_step_count=12, deadline=None)
