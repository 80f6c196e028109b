"""A register layout is the counts of its data qubits, backups and photon modes."""

from mfsim.statevec import RegisterLayout


def test_register_layout_is_its_counts():
    layout = RegisterLayout.build(2, with_backup=True)
    assert layout == RegisterLayout(2, True, 2) != RegisterLayout.build(2)
    assert layout.n_qubits == 6
    assert RegisterLayout.build(3, n_photons=0).n_qubits == 3
