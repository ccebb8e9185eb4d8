import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import odfprobe
from odfprobe.angular import HalfInt
from odfprobe.states import MolecularState, enumerate_states, spin_rotation_levels


def combinatorial_count(n_max):
    # independent oracle: 12 * sum over even N <= n_max of (2N + 1)
    return 12 * sum(2 * n + 1 for n in range(0, n_max + 1, 2))


class TestEnumeration:
    def test_540_states_at_n_max_8(self):
        assert len(enumerate_states(8)) == 540

    def test_n_max_zero(self):
        states = enumerate_states(0)
        assert len(states) == 12
        assert sum(1 for s in states if s.i_nuc == 0) == 2
        assert sum(1 for s in states if s.i_nuc == 2) == 10

    def test_isomer_restriction(self):
        assert len(enumerate_states(8, isomers=(0,))) == 90

    @pytest.mark.parametrize("n_max", [0, 2, 4, 6, 8])
    def test_count_formula(self, n_max):
        assert len(enumerate_states(n_max)) == combinatorial_count(n_max)

    def test_no_duplicates_and_sorted(self):
        states = enumerate_states(8)
        assert len(set(states)) == len(states)
        keys = [s.sort_key() for s in states]
        assert keys == sorted(keys)

    def test_odd_n_max_rejected(self):
        with pytest.raises(ValueError):
            enumerate_states(7)
        with pytest.raises(ValueError):
            enumerate_states(-2)

    def test_spin_rotation_levels(self):
        levels = spin_rotation_levels(4)
        assert (0, HalfInt(1)) in levels
        assert (2, HalfInt(3)) in levels and (2, HalfInt(5)) in levels
        assert all(n % 2 == 0 for n, _ in levels)
        # N = 0 has only J = 1/2
        assert sum(1 for n, _ in levels if n == 0) == 1


class TestMolecularState:
    def test_valid_state(self):
        s = MolecularState(6, HalfInt(11), 2, HalfInt(15), HalfInt(-11))
        assert "F=15/2" in s.label()

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            MolecularState(3, HalfInt(7), 0, None, HalfInt(1))

    def test_j_must_be_n_plus_minus_half(self):
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(11), 0, None, HalfInt(1))
        with pytest.raises(ValueError):
            MolecularState(0, HalfInt(-1), 0, None, HalfInt(1))

    def test_f_rules(self):
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(7), 0, HalfInt(11), HalfInt(1))
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(7), 2, None, HalfInt(1))
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(7), 2, HalfInt(13), HalfInt(1))
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(7), 1, HalfInt(9), HalfInt(1))

    def test_m_range(self):
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(7), 0, None, HalfInt(9))
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(7), 2, HalfInt(11), HalfInt(13))
        with pytest.raises(ValueError):
            MolecularState(4, HalfInt(7), 0, None, HalfInt(4))  # parity mismatch

    def test_stored_hash_is_the_field_tuple_hash(self):
        # the generated dataclass hash, so sets of states keep their order
        for s in enumerate_states(4):
            assert hash(s) == hash((s.n, s.j, s.i_nuc, s.f, s.m))

    def test_states_pickled_in_another_process_hash_here(self):
        # hash(None) differs between processes, and every I = 0 state has F = None
        src = str(Path(odfprobe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import pickle, sys; from odfprobe.states import enumerate_states; "
                "sys.stdout.buffer.write(pickle.dumps(enumerate_states(2)))")
        loaded = pickle.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                             capture_output=True, timeout=120).stdout)
        assert loaded == enumerate_states(2)
        assert set(loaded) == set(enumerate_states(2))
