"""Dataset containers and loader tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, DataLoader, Dataset, Subset
from repro.data.transforms import GaussianNoise, TransformedDataset


class TestArrayDataset:
    def test_len_and_getitem(self):
        ds = ArrayDataset(np.zeros((5, 2)), np.arange(5))
        assert len(ds) == 5
        x, y = ds[3]
        assert y == 3 and x.shape == (2,)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 2)), np.arange(4))

    def test_arrays_roundtrip(self):
        images = np.random.default_rng(0).normal(size=(6, 3))
        labels = np.arange(6)
        x, y = ArrayDataset(images, labels).arrays()
        np.testing.assert_allclose(x, images)
        np.testing.assert_array_equal(y, labels)

    def test_class_counts(self):
        ds = ArrayDataset(np.zeros((6, 1)), np.array([0, 0, 1, 2, 2, 2]))
        np.testing.assert_array_equal(ds.class_counts(4), [2, 1, 3, 0])


class TestSubset:
    def test_view_semantics(self):
        base = ArrayDataset(np.arange(10).reshape(10, 1).astype(float), np.arange(10))
        sub = Subset(base, [2, 5, 7])
        assert len(sub) == 3
        assert sub[1][1] == 5

    def test_out_of_range_indices(self):
        base = ArrayDataset(np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(IndexError):
            Subset(base, [0, 5])

    def test_arrays_on_subset(self):
        base = ArrayDataset(np.arange(8).reshape(8, 1).astype(float), np.arange(8))
        x, y = Subset(base, [1, 3]).arrays()
        np.testing.assert_array_equal(y, [1, 3])

    @pytest.mark.parametrize("indices", [[1.5], [0.0, 2.0], np.array([1.0]), [True, False]])
    def test_non_integer_indices_rejected(self, indices):
        """``Subset(ds, [1.5])`` used to truncate to index 1 silently."""
        base = ArrayDataset(np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(TypeError, match="subset indices must be integers"):
            Subset(base, indices)

    def test_integer_indices_of_any_width_and_empty_subsets_accepted(self):
        base = ArrayDataset(np.arange(3.0).reshape(3, 1), np.arange(3))
        assert Subset(base, np.array([2, 0], dtype=np.int32)).indices.dtype == np.int64
        empty = Subset(base, [])
        assert len(empty) == 0
        x, y = empty.arrays()
        assert x.shape == (0, 1) and y.shape == (0,)


class TestDataLoader:
    def _ds(self, n=10):
        return ArrayDataset(np.arange(n).reshape(n, 1).astype(float), np.arange(n))

    def test_batch_shapes_and_count(self):
        loader = DataLoader(self._ds(10), batch_size=3)
        batches = list(loader)
        assert len(batches) == 4
        assert batches[0][0].shape == (3, 1)
        assert batches[-1][0].shape == (1, 1)

    def test_drop_last(self):
        loader = DataLoader(self._ds(10), batch_size=3, drop_last=True)
        assert len(list(loader)) == 3
        assert len(loader) == 3

    def test_no_shuffle_preserves_order(self):
        loader = DataLoader(self._ds(6), batch_size=2)
        ys = np.concatenate([y for _, y in loader])
        np.testing.assert_array_equal(ys, np.arange(6))

    def test_shuffle_covers_everything(self):
        loader = DataLoader(self._ds(10), batch_size=3, shuffle=True, seed=0)
        ys = np.concatenate([y for _, y in loader])
        assert sorted(ys.tolist()) == list(range(10))

    def test_seeded_loaders_replay_identically(self):
        a = DataLoader(self._ds(10), batch_size=4, shuffle=True, seed=42)
        b = DataLoader(self._ds(10), batch_size=4, shuffle=True, seed=42)
        for (_, ya), (_, yb) in zip(a, b):
            np.testing.assert_array_equal(ya, yb)

    def test_reshuffles_between_epochs(self):
        loader = DataLoader(self._ds(20), batch_size=20, shuffle=True, seed=1)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)

    def test_sample_batch(self):
        loader = DataLoader(self._ds(10), batch_size=4, seed=0)
        x, y = loader.sample_batch()
        assert x.shape == (4, 1)
        assert len(set(y.tolist())) == 4  # without replacement

    def test_sample_batch_smaller_dataset(self):
        loader = DataLoader(self._ds(2), batch_size=5, seed=0)
        x, _ = loader.sample_batch()
        assert x.shape == (2, 1)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._ds(4), batch_size=0)

    def test_sample_batch_on_empty_dataset_says_so(self):
        """Used to die unpacking ``zip(*[])``: "not enough values to unpack"."""
        for empty in (self._ds(0), Subset(self._ds(4), [])):
            loader = DataLoader(empty, batch_size=4, seed=0)
            with pytest.raises(ValueError, match="cannot sample a batch from an empty dataset"):
                loader.sample_batch()
            assert list(loader) == []


def per_item_batch(dataset: Dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    """The batching code ``take`` replaced, verbatim."""
    xs, ys = zip(*(dataset[int(i)] for i in indices))
    return np.stack(xs), np.asarray(ys)


class PerItem(Dataset):
    """A dataset batched the way every dataset was before ``take``."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    def __len__(self) -> int:
        return len(self.dataset)

    def take(self, indices):
        return per_item_batch(self.dataset, indices)


def _base() -> ArrayDataset:
    rng = np.random.default_rng(3)
    return ArrayDataset(rng.normal(size=(23, 3, 4, 4)), rng.integers(0, 5, size=23))


def _noisy(seed: int) -> TransformedDataset:
    return TransformedDataset(_base(), GaussianNoise(0.1, seed=seed))


#: name -> factory; called twice so gathered and per-item sides own
#: separate (identically seeded) transform generators
DATASETS = {
    "array": _base,
    "subset": lambda: Subset(_base(), [7, 2, 19, 2, 11, 0, 22, 5, 13]),
    "subset-of-subset": lambda: Subset(
        Subset(_base(), [7, 2, 19, 2, 11, 0, 22, 5]), [6, 0, 3, 3, 1]
    ),
    "float32-images": lambda: ArrayDataset(_base().images.astype(np.float32), _base().labels),
    "transformed": lambda: _noisy(5),
    "subset-of-transformed": lambda: Subset(_noisy(5), [4, 4, 1, 20]),
    "transformed-subset": lambda: TransformedDataset(
        Subset(_base(), [3, 9, 1]), GaussianNoise(0.1, seed=8)
    ),
}


def assert_same_batch(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", list(DATASETS))
class TestTakeEqualsThePerItemLoop:
    """``sample_batch`` / ``__iter__`` / ``arrays`` return the arrays the
    per-item loop returned: values, dtypes, order, and the draws consumed
    from the loader's generator and from a transform's."""

    def test_take(self, name):
        gathered, looped = DATASETS[name](), DATASETS[name]()
        indices = np.array([2, 0, 2, len(gathered) - 1])
        assert_same_batch(gathered.take(indices), per_item_batch(looped, indices))

    def test_arrays(self, name):
        gathered, looped = DATASETS[name](), DATASETS[name]()
        assert_same_batch(gathered.arrays(), per_item_batch(looped, range(len(looped))))

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_iteration(self, name, shuffle):
        kwargs = dict(batch_size=4, shuffle=shuffle, seed=17)
        gathered = DataLoader(DATASETS[name](), **kwargs)
        looped = DataLoader(PerItem(DATASETS[name]()), **kwargs)
        for _ in range(2):  # a second epoch reshuffles from the same stream
            batches, reference = list(gathered), list(looped)
            assert len(batches) == len(reference) == len(gathered)
            for got, want in zip(batches, reference):
                assert_same_batch(got, want)
        assert gathered._rng.bit_generator.state == looped._rng.bit_generator.state

    def test_sample_batch(self, name):
        gathered = DataLoader(DATASETS[name](), batch_size=4, seed=17)
        looped = DataLoader(PerItem(DATASETS[name]()), batch_size=4, seed=17)
        for _ in range(5):
            assert_same_batch(gathered.sample_batch(), looped.sample_batch())
        assert gathered._rng.bit_generator.state == looped._rng.bit_generator.state


def test_per_item_datasets_cannot_take_nothing():
    """``arrays()`` on an empty per-item dataset used to die unpacking
    ``zip(*[])``; an array-backed one knows the shape and answers."""
    empty = ArrayDataset(np.zeros((0, 3, 4, 4)), np.zeros(0, dtype=np.int64))
    x, y = empty.arrays()
    assert x.shape == (0, 3, 4, 4) and y.shape == (0,)
    with pytest.raises(ValueError, match="cannot take zero samples one by one"):
        TransformedDataset(empty, GaussianNoise(0.1, seed=0)).arrays()
